"""Substrate micro-benchmarks: parser, skeleton, linker, EM, execution.

Unlike the artifact benches (one expensive regeneration each), these are
classic multi-round timings of the hot inner loops — the costs every
experiment pays thousands of times.

Run as a script for the evaluation-engine speedup check::

    PYTHONPATH=src python benchmarks/bench_substrate.py --smoke

which sweeps a 4-config grid serially and with a worker pool over a
latency-bearing simulated backend, verifies the reports are identical,
prints the speedup, and (in ``--smoke`` mode) exits non-zero if the
parallel sweep is slower than the serial one.  The script then reruns
the same grid cold and warm against an on-disk artifact cache and
verifies the warm pass replays byte-identical reports with a 100%
generate-stage hit rate (and, in ``--smoke`` mode, a wall-clock win).
Finally it sweeps the grid with full observability on (JSONL tracing +
metrics registry) versus the ``NULL_TRACER`` baseline and gates the
instrumentation overhead at 5% (``--artifacts-dir`` keeps the trace and
a Prometheus snapshot for CI upload), then gates the static-analysis
stage at 5% of pipeline stage wall-clock while verifying its safety
contract (every fatal diagnostic short-circuits execution, clean
predictions execute, warm reruns replay analysis from disk), and
finally gates the execution-feedback repair loop (EX uplift >= 0,
bounded generation overhead, byte-identical generation-free warm
replay, ``repair_recovery_rate`` snapshotted).

``--baseline-out BENCH_substrate.json`` snapshots the run's headline
metrics (engine/cache speedups, instrumentation slowdown ratio,
analyze and transpile shares) via :mod:`repro.obs.baseline`;
``--baseline-compare`` diffs against a prior snapshot and exits
non-zero when any metric slips past ``--baseline-threshold`` in its
regression direction.  ``dail-sql obs diff`` reads the same files.
"""

import pytest

from repro.dataset.generator.corpus import CorpusConfig, build_corpus
from repro.eval.exact_match import exact_match
from repro.schema.linker import SchemaLinker
from repro.sql.parser import parse
from repro.sql.skeleton import skeleton_similarity, sql_skeleton
from repro.sql.unparse import unparse

QUERIES = [
    "SELECT name FROM singer WHERE age > 20 ORDER BY age DESC LIMIT 3",
    ("SELECT T1.name, count(*) FROM singer AS T1 JOIN concert AS T2 "
     "ON T1.id = T2.singer_id GROUP BY T1.name HAVING count(*) > 2"),
    "SELECT name FROM stadium WHERE id NOT IN (SELECT stadium_id FROM concert)",
    "SELECT country FROM singer WHERE age > 40 INTERSECT "
    "SELECT country FROM singer WHERE age < 30",
]


@pytest.fixture(scope="module")
def small_corpus():
    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))
    yield corpus
    corpus.close()


def test_parse_throughput(benchmark):
    def run():
        for sql in QUERIES:
            parse(sql)
    benchmark(run)


def test_roundtrip_throughput(benchmark):
    def run():
        for sql in QUERIES:
            unparse(parse(sql))
    benchmark(run)


def test_skeleton_throughput(benchmark):
    benchmark(lambda: [sql_skeleton(sql) for sql in QUERIES])


def test_skeleton_similarity_cached(benchmark):
    # Post-warmup this is the memoised path the simulated LLM and the
    # preliminary SQL hit per example; the selection index reads each
    # candidate through the same memo once, when it is built.
    skeleton_similarity(QUERIES[0], QUERIES[1])
    benchmark(lambda: skeleton_similarity(QUERIES[0], QUERIES[1]))


def test_dail_rank_throughput(benchmark, small_corpus):
    # One DAIL_S ranking per dev question against the indexed train pool.
    from repro.selection.strategies import DailSelection

    strategy = DailSelection(small_corpus.train)
    strategy.set_target_dataset(small_corpus.dev)
    targets = [(e.question, e.db_id, e.query) for e in small_corpus.dev]
    benchmark(lambda: [strategy.rank(*target) for target in targets])


def test_exact_match_throughput(benchmark):
    benchmark(lambda: [exact_match(sql, sql) for sql in QUERIES])


def test_linker_throughput(benchmark, small_corpus):
    schema = small_corpus.dev.schema(small_corpus.dev.db_ids()[0])
    linker = SchemaLinker(schema)
    question = "List the name of the 3 singers with the highest age."
    benchmark(lambda: linker.link(question))


def test_execution_throughput(benchmark, small_corpus):
    db_id = small_corpus.dev.db_ids()[0]
    database = small_corpus.pool().get(db_id)
    example = next(e for e in small_corpus.dev if e.db_id == db_id)
    benchmark(lambda: database.execute(example.query))


def test_corpus_generation(benchmark):
    def run():
        corpus = build_corpus(
            CorpusConfig(seed=99, train_per_db=4, dev_per_db=3,
                         domains=["pets_1", "orchestra_hall"])
        )
        corpus.close()
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_parallel_sweep(benchmark, small_corpus):
    """Wall-clock of a 4-config sweep on the worker-pool engine."""
    from repro.eval.engine import GridRunner

    def run():
        runner = _grid_runner(small_corpus, latency_s=0.002)
        grid = GridRunner(runner, workers=4).sweep(_grid_configs(), limit=4)
        assert len(grid) == 4

    benchmark.pedantic(run, rounds=3, iterations=1)


# -- evaluation-engine speedup check (script mode) ---------------------------

def _grid_configs():
    from repro.eval.harness import RunConfig

    return [
        RunConfig(model="gpt-4", representation="CR_P"),
        RunConfig(model="gpt-4", representation="OD_P"),
        RunConfig(model="gpt-3.5-turbo", representation="CR_P"),
        RunConfig(model="gpt-4", representation="CR_P",
                  selection="DAIL_S", organization="DAIL_O", k=3),
    ]


def _grid_runner(corpus, latency_s, cache=None):
    from repro.eval.harness import BenchmarkRunner

    return BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=1,
        llm_latency_s=latency_s, cache=cache,
    )


def engine_speedup(workers=4, latency_s=0.02, limit=None, smoke=False):
    """Sweep one grid serially then in parallel; return (speedup, grids).

    Fresh runners per mode keep the comparison fair (cold caches on both
    sides); the simulated backend sleeps ``latency_s`` per generation to
    stand in for remote-API round-trips, which is the regime the worker
    pool exists for.
    """
    import time

    from dataclasses import asdict

    from repro.eval.engine import GridRunner

    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))
    try:
        configs = _grid_configs()
        start = time.perf_counter()
        serial = GridRunner(_grid_runner(corpus, latency_s), workers=1).sweep(
            configs, limit=limit
        )
        serial_s = time.perf_counter() - start

        start = time.perf_counter()
        parallel = GridRunner(
            _grid_runner(corpus, latency_s), workers=workers
        ).sweep(configs, limit=limit)
        parallel_s = time.perf_counter() - start
    finally:
        corpus.close()

    for a, b in zip(serial, parallel):
        if [asdict(r) for r in a.records] != [asdict(r) for r in b.records]:
            raise AssertionError(
                f"parallel records diverge from serial for {a.label!r}"
            )

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    examples = sum(len(report) for report in serial)
    print(f"grid: {len(configs)} configs x {examples // len(configs)} "
          f"examples, llm latency {latency_s * 1000:.0f} ms")
    print(f"serial   (workers=1): {serial_s:7.2f} s")
    print(f"parallel (workers={workers}): {parallel_s:7.2f} s")
    print(f"speedup: {speedup:.2f}x  "
          f"(utilization {parallel[0].telemetry.utilization:.0%}, "
          f"reports identical)")
    if smoke and speedup < 1.0:
        raise SystemExit(
            f"FAIL: parallel sweep slower than serial ({speedup:.2f}x)"
        )
    return speedup, (serial, parallel)


def cache_roundtrip(latency_s=0.02, limit=None, smoke=False):
    """Sweep one grid cold, then warm, against a disk artifact cache.

    Two runners with two *separate* :class:`ArtifactCache` instances
    sharing one disk directory stand in for two processes: the warm
    pass must replay the cold pass byte-identically from artifacts
    alone (100% generate-stage hit rate — the LLM is never called) and,
    with generation latency in play, measurably faster.

    Returns ``(speedup, cold_grid, warm_grid)``.
    """
    import tempfile
    import time

    from dataclasses import asdict

    from repro.cache.store import build_cache
    from repro.eval.engine import GridRunner

    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))
    try:
        configs = _grid_configs()
        with tempfile.TemporaryDirectory(prefix="repro-cache-") as cache_dir:
            start = time.perf_counter()
            cold_runner = _grid_runner(
                corpus, latency_s, cache=build_cache(disk_dir=cache_dir)
            )
            cold = GridRunner(cold_runner, workers=1).sweep(configs, limit=limit)
            cold_s = time.perf_counter() - start

            start = time.perf_counter()
            warm_runner = _grid_runner(
                corpus, latency_s, cache=build_cache(disk_dir=cache_dir)
            )
            warm = GridRunner(warm_runner, workers=1).sweep(configs, limit=limit)
            warm_s = time.perf_counter() - start
    finally:
        corpus.close()

    for a, b in zip(cold, warm):
        if [asdict(r) for r in a.records] != [asdict(r) for r in b.records]:
            raise AssertionError(
                f"warm records diverge from cold for {a.label!r}"
            )
    generate_stats = warm_runner.cache.stats().get("generate", {})
    if generate_stats.get("misses", 0) or not generate_stats.get("hits", 0):
        raise AssertionError(
            f"warm sweep was not generation-free: {generate_stats}"
        )

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print(f"cold (empty cache):   {cold_s:7.2f} s")
    print(f"warm (disk replay):   {warm_s:7.2f} s")
    print(f"speedup: {speedup:.2f}x  "
          f"(reports identical, generate hit rate 100%)")
    if smoke and speedup < 1.0:
        raise SystemExit(
            f"FAIL: warm sweep slower than cold ({speedup:.2f}x)"
        )
    return speedup, cold, warm


def instrumentation_overhead(latency_s=0.02, limit=None, smoke=False,
                             artifacts_dir=None, max_overhead=0.05):
    """Sweep one grid uninstrumented, then fully instrumented.

    The instrumented pass streams a JSONL trace and records every metric
    into a shared registry; the baseline runs on the ``NULL_TRACER``.
    Records must be byte-identical either way, and (``--smoke``) the
    instrumented wall-clock may exceed the baseline by at most
    ``max_overhead``.  Two interleaved rounds per mode, minima compared,
    so a background stall in one round cannot skew the ratio.

    With ``artifacts_dir`` set, the trace files land in
    ``<artifacts_dir>/traces/`` and a Prometheus snapshot (validated by
    :func:`~repro.obs.metrics.parse_prometheus`) in
    ``<artifacts_dir>/metrics.prom`` — CI uploads both.

    Returns ``(overhead_fraction, baseline_grid, instrumented_grid)``.
    """
    import shutil
    import tempfile
    import time

    from dataclasses import asdict
    from pathlib import Path

    from repro.eval.engine import GridRunner
    from repro.obs import tracefile
    from repro.obs.metrics import MetricsRegistry, parse_prometheus
    from repro.obs.trace import NULL_TRACER, build_tracer

    out_dir = (Path(artifacts_dir) if artifacts_dir
               else Path(tempfile.mkdtemp(prefix="repro-obs-")))
    trace_dir = out_dir / "traces"

    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))
    try:
        configs = _grid_configs()
        registry = MetricsRegistry()

        def sweep(tracer, reg):
            runner = _grid_runner(corpus, latency_s)
            start = time.perf_counter()
            grid = GridRunner(runner, workers=1, tracer=tracer,
                              registry=reg).sweep(configs, limit=limit)
            return time.perf_counter() - start, grid

        base_s = instr_s = float("inf")
        base_grid = instr_grid = None
        for _ in range(2):
            elapsed, base_grid = sweep(NULL_TRACER, None)
            base_s = min(base_s, elapsed)
            tracer = build_tracer(trace_dir)
            try:
                elapsed, instr_grid = sweep(tracer, registry)
            finally:
                tracer.close()
            instr_s = min(instr_s, elapsed)
    finally:
        corpus.close()

    for a, b in zip(base_grid, instr_grid):
        if [asdict(r) for r in a.records] != [asdict(r) for r in b.records]:
            raise AssertionError(
                f"instrumented records diverge from baseline for {a.label!r}"
            )

    spans = tracefile.load_spans(trace_dir)
    snapshot = registry.to_prometheus()
    parse_prometheus(snapshot)  # must round-trip the text format
    (out_dir / "metrics.prom").write_text(snapshot)

    overhead = instr_s / base_s - 1.0 if base_s > 0 else 0.0
    print(f"baseline     (NullTracer): {base_s:7.2f} s")
    print(f"instrumented (trace+metrics): {instr_s:4.2f} s")
    print(f"overhead: {overhead:+.1%}  ({len(spans)} spans, "
          f"{len(snapshot.splitlines())} metric lines, reports identical)")
    if artifacts_dir:
        print(f"artifacts: {trace_dir}/*.jsonl, {out_dir / 'metrics.prom'}")
    else:
        shutil.rmtree(out_dir, ignore_errors=True)
    if smoke and overhead > max_overhead:
        raise SystemExit(
            f"FAIL: instrumentation overhead {overhead:.1%} exceeds "
            f"{max_overhead:.0%}"
        )
    return overhead, base_grid, instr_grid


def analyze_overhead(latency_s=0.02, limit=None, smoke=False,
                     max_share=0.05):
    """Gate the analyze stage's cost and verify its safety contract.

    One smoke sweep (the standard grid plus an open-source model whose
    sloppier SQL actually trips the analyzer) with metrics on, then a
    warm rerun against the same disk cache.  Four checks:

    1. **Cost** — the analyze stage consumes at most ``max_share``
       (default 5%) of total pipeline stage wall-clock.  Short-circuited
       executions stay in the denominator: skipping a doomed execution
       must never be what buys the budget.
    2. **Gate consistency** — every fatal diagnostic short-circuits
       execution: ``repro_lint_short_circuit_total`` equals the number
       of lint-gated records (``error_class == "lint:*"``).
    3. **Clean predictions execute** — records the analyzer passed
       (no fatal diagnostics) carry no non-runtime failure: any
       ``error`` on them came from the database, not the gate.
    4. **Replay** — the warm rerun is byte-identical and serves every
       analysis artifact from disk (zero analyze misses).

    Returns ``(share, grid)``.
    """
    import tempfile

    from dataclasses import asdict

    from repro.cache.store import build_cache
    from repro.eval.engine import GridRunner
    from repro.eval.harness import RunConfig
    from repro.obs.metrics import (
        M_LINT_DIAGNOSTICS,
        M_LINT_SHORT_CIRCUIT,
        MetricsRegistry,
    )

    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))
    try:
        configs = _grid_configs() + [
            RunConfig(model="llama-13b", representation="CR_P"),
        ]
        with tempfile.TemporaryDirectory(prefix="repro-lint-") as cache_dir:
            registry = MetricsRegistry()
            runner = _grid_runner(
                corpus, latency_s, cache=build_cache(disk_dir=cache_dir)
            )
            grid = GridRunner(runner, workers=1, registry=registry).sweep(
                configs, limit=limit
            )

            gated = sum(
                1 for report in grid for r in report.records
                if r.error_class.startswith("lint:")
            )
            short_circuits = int(registry.counter_value(M_LINT_SHORT_CIRCUIT))
            if short_circuits != gated:
                raise AssertionError(
                    f"gate inconsistency: {short_circuits} short-circuits "
                    f"vs {gated} lint-gated records"
                )
            fired = int(registry.counter_value(M_LINT_DIAGNOSTICS))
            if not gated or not fired:
                raise AssertionError(
                    "smoke grid tripped no analyzer rule — the gate checks "
                    "above verified nothing"
                )
            for report in grid:
                for r in report.records:
                    if not r.error_class.startswith("lint:") and r.error \
                            and "lint" in r.error:
                        raise AssertionError(
                            f"analyzer-clean record failed outside the "
                            f"runtime: {r.error!r}"
                        )

            analyze_s = sum(
                report.telemetry.stage_s.get("analyze", 0.0)
                for report in grid
            )
            total_s = sum(
                sum(report.telemetry.stage_s.values()) for report in grid
            )
            share = analyze_s / total_s if total_s > 0 else 0.0

            warm_runner = _grid_runner(
                corpus, latency_s, cache=build_cache(disk_dir=cache_dir)
            )
            warm = GridRunner(warm_runner, workers=1).sweep(
                configs, limit=limit
            )
            for a, b in zip(grid, warm):
                if [asdict(r) for r in a.records] != \
                        [asdict(r) for r in b.records]:
                    raise AssertionError(
                        f"warm analyzer records diverge for {a.label!r}"
                    )
            analyze_stats = warm_runner.cache.stats().get("analyze", {})
            if analyze_stats.get("misses", 0) or \
                    not analyze_stats.get("disk_hits", 0):
                raise AssertionError(
                    f"warm rerun recomputed analysis artifacts: "
                    f"{analyze_stats}"
                )
    finally:
        corpus.close()

    print(f"analyze stage: {analyze_s:.2f} s of {total_s:.2f} s pipeline "
          f"stage time ({share:.1%} share)")
    print(f"lint: {fired} diagnostics, {gated} gated records, "
          f"{short_circuits} short-circuited executions (1:1 with gates)")
    print("warm rerun: byte-identical, analysis served from disk")
    if smoke and share > max_share:
        raise SystemExit(
            f"FAIL: analyze stage consumed {share:.1%} of pipeline "
            f"wall-clock (budget {max_share:.0%})"
        )
    return share, grid


def transpile_overhead(latency_s=0.02, limit=None, smoke=False,
                       max_share=0.05):
    """Gate the dialect transpiler's cost on an emulated backend.

    Sweeps the standard grid on a ``postgres``-profile pool — every
    statement (gold and predicted) passes through
    ``normalize_to_reference`` before it reaches SQLite — with metrics
    on, and checks:

    1. **Cost** — total transpilation time
       (``repro_sql_transpile_seconds_total``, all dialects) is at most
       ``max_share`` (default 5%) of execute-stage wall-clock.
    2. **Non-trivial numerator** — the transpiler actually ran; a gate
       over an idle counter would verify nothing.
    3. **Transfer sanity** — the same grid on the reference backend
       yields reports with the same record count; the emulated pool is
       a drop-in, not a shortcut.

    Returns ``(share, grid)``.
    """
    from repro.eval.engine import GridRunner
    from repro.eval.harness import BenchmarkRunner
    from repro.obs.metrics import M_SQL_TRANSPILE, MetricsRegistry

    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))
    try:
        configs = _grid_configs()
        registry = MetricsRegistry()
        runner = BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(backend="postgres"),
            seed=1, llm_latency_s=latency_s,
        )
        grid = GridRunner(runner, workers=1, registry=registry).sweep(
            configs, limit=limit
        )

        transpile_s = registry.counter_value(M_SQL_TRANSPILE)
        if transpile_s <= 0.0:
            raise AssertionError(
                "postgres-backend sweep recorded no transpilation time — "
                "the gate below would verify nothing"
            )
        execute_s = sum(
            report.telemetry.stage_s.get("execute", 0.0) for report in grid
        )
        share = transpile_s / execute_s if execute_s > 0 else 0.0

        reference = GridRunner(
            _grid_runner(corpus, latency_s), workers=1
        ).sweep(configs, limit=limit)
        for a, b in zip(reference, grid):
            if len(a) != len(b):
                raise AssertionError(
                    f"emulated backend dropped records for {a.label!r}: "
                    f"{len(b)} vs {len(a)}"
                )
    finally:
        corpus.close()

    print(f"transpile (postgres profile): {transpile_s * 1000:.1f} ms of "
          f"{execute_s:.2f} s execute-stage time ({share:.1%} share)")
    print(f"emulated grid matches reference record counts "
          f"({sum(len(r) for r in grid)} records)")
    if smoke and share > max_share:
        raise SystemExit(
            f"FAIL: transpilation consumed {share:.1%} of execute-stage "
            f"wall-clock (budget {max_share:.0%})"
        )
    return share, grid


def repair_loop_gate(latency_s=0.02, limit=None, smoke=False, rounds=2):
    """Gate the execution-feedback repair loop: uplift, bounds, replay.

    Sweeps one weak-model config (llama-13b zero-shot — sloppy enough
    SQL that the loop actually fires) at feedback budgets N=0 and
    N=``rounds`` against one shared disk cache directory, then checks:

    1. **Uplift** — EX(N) >= EX(0).  The loop only ever replaces a dead
       candidate with a strictly better one, so a regression here means
       the degradation ladder broke.  At least one candidate must
       actually recover, or the gate verified nothing.
    2. **Bounded overhead** — no record exceeds its round budget, and
       the extra generations of the N=``rounds`` sweep are exactly the
       charged feedback rounds (the loop cannot generate off the books).
    3. **Replay** — a second N=``rounds`` pass from a fresh cache
       instance over the same disk directory is byte-identical and
       generation-free: feedback artifacts resume like any others.

    Returns ``(recovery_rate, repaired_grid)`` where ``recovery_rate``
    is recovered / triggered examples — the snapshot metric.
    """
    import tempfile

    from dataclasses import asdict

    from repro.cache.store import build_cache
    from repro.eval.engine import GridRunner
    from repro.eval.harness import BenchmarkRunner, RunConfig
    from repro.repair import REPAIR_EXHAUSTED

    config = RunConfig(model="llama-13b", representation="CR_P")
    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))

    def runner_with(feedback_rounds, cache_dir):
        return BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(), seed=1,
            llm_latency_s=latency_s, cache=build_cache(disk_dir=cache_dir),
            feedback_rounds=feedback_rounds,
        )

    try:
        with tempfile.TemporaryDirectory(prefix="repro-repair-") as cache_dir:
            plain_runner = runner_with(0, cache_dir)
            plain = GridRunner(plain_runner, workers=1).sweep(
                [config], limit=limit
            )[0]
            base_misses = plain_runner.cache.stats().get(
                "generate", {}
            ).get("misses", 0)

            repaired_runner = runner_with(rounds, cache_dir)
            repaired = GridRunner(repaired_runner, workers=1).sweep(
                [config], limit=limit
            )[0]

            # 1. uplift: monotone EX, and the loop really fired.
            if repaired.execution_accuracy < plain.execution_accuracy:
                raise AssertionError(
                    f"feedback rounds lost accuracy: "
                    f"{repaired.execution_accuracy:.3f} < "
                    f"{plain.execution_accuracy:.3f}"
                )
            recovered = sum(
                1 for r in repaired.records
                if r.repair_won_round > 0 and not r.error_class
            )
            triggered = sum(
                1 for r in repaired.records
                if r.repair_rounds > 0 or r.error_class == REPAIR_EXHAUSTED
            )
            if not recovered:
                raise AssertionError(
                    "no candidate recovered — the uplift gate verified "
                    "nothing"
                )

            # 2. bounds: per-record budget and no off-the-books calls.
            if any(r.repair_rounds > rounds for r in repaired.records):
                raise AssertionError("a record exceeded its round budget")
            charged = sum(r.repair_rounds for r in repaired.records)
            extra = repaired_runner.cache.stats().get(
                "generate", {}
            ).get("misses", 0)
            if extra != charged:
                raise AssertionError(
                    f"feedback sweep generated {extra} new artifacts but "
                    f"charged {charged} rounds"
                )

            # 3. replay: warm rerun is byte-identical, generation-free.
            warm_runner = runner_with(rounds, cache_dir)
            warm = GridRunner(warm_runner, workers=1).sweep(
                [config], limit=limit
            )[0]
            if [asdict(r) for r in warm.records] != \
                    [asdict(r) for r in repaired.records]:
                raise AssertionError(
                    "warm feedback records diverge from cold"
                )
            warm_stats = warm_runner.cache.stats().get("generate", {})
            if warm_stats.get("misses", 0) or not warm_stats.get("hits", 0):
                raise AssertionError(
                    f"warm feedback sweep was not generation-free: "
                    f"{warm_stats}"
                )
    finally:
        corpus.close()

    recovery_rate = recovered / triggered if triggered else 0.0
    uplift = repaired.execution_accuracy - plain.execution_accuracy
    print(f"repair loop (N={rounds}): EX {plain.execution_accuracy:.3f} -> "
          f"{repaired.execution_accuracy:.3f} ({uplift:+.3f})")
    print(f"recovered {recovered}/{triggered} dead candidates "
          f"({recovery_rate:.0%}), {charged} feedback rounds charged, "
          f"{base_misses} round-0 generations shared")
    print("warm rerun: byte-identical, feedback artifacts replayed "
          "from disk")
    return recovery_rate, repaired


def semantic_dedup_gate(latency_s=0.02, limit=None, smoke=False,
                        n_samples=5):
    """Gate equivalence-class dedup: fewer executions, same report.

    Sweeps one weak-model config (llama-13b zero-shot — noisy enough
    that self-consistency samples collide) at ``n_samples`` with
    semantic dedup on and off, from fresh caches, then checks:

    1. **Effect** — the dedup-on sweep actually coalesced candidates
       (``telemetry.semantic_dedup > 0``) and its execute-stage lookup
       total is lower by exactly that count: every dedup event is one
       statement that never reached the execution layer.
    2. **Transparency** — the two reports are byte-identical record for
       record.  Dedup is an optimisation, never a scoring change.
    3. **Soundness** — on every record ``semantic_match`` implies
       ``exec_match`` (the prover never credits a wrong result), so the
       report-level rates bracket as sem <= ex.

    Returns ``(dedup_saving, deduped_grid)`` where ``dedup_saving`` is
    the fraction of execute-stage lookups the dedup removed — the
    snapshot metric.
    """
    from dataclasses import asdict

    from repro.eval.engine import GridRunner
    from repro.eval.harness import BenchmarkRunner, RunConfig

    config = RunConfig(model="llama-13b", representation="CR_P")
    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))

    def runner_with(semantic_dedup):
        return BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(), seed=1,
            llm_latency_s=latency_s, semantic_dedup=semantic_dedup,
        )

    def execute_lookups(runner):
        stats = runner.cache.stats().get("execute", {})
        return stats.get("hits", 0) + stats.get("misses", 0)

    try:
        on_runner = runner_with(True)
        deduped = GridRunner(on_runner, workers=1).sweep(
            [config], limit=limit, n_samples=n_samples
        )[0]
        off_runner = runner_with(False)
        plain = GridRunner(off_runner, workers=1).sweep(
            [config], limit=limit, n_samples=n_samples
        )[0]

        # 1. effect: classes collapsed, executions saved one-for-one.
        saved = deduped.telemetry.semantic_dedup
        if not saved:
            raise AssertionError(
                "semantic dedup never fired — the gate verified nothing"
            )
        on_lookups = execute_lookups(on_runner)
        off_lookups = execute_lookups(off_runner)
        if on_lookups + saved != off_lookups:
            raise AssertionError(
                f"dedup bookkeeping off: {on_lookups} lookups + {saved} "
                f"deduped != {off_lookups} without dedup"
            )

        # 2. transparency: scoring is unchanged byte for byte.
        if [asdict(r) for r in deduped.records] != \
                [asdict(r) for r in plain.records]:
            raise AssertionError(
                "dedup-on records diverge from dedup-off"
            )

        # 3. soundness: the prover never out-credits execution.
        unsound = [r.example_id for r in deduped.records
                   if r.semantic_match and not r.exec_match]
        if unsound:
            raise AssertionError(
                f"semantic_match without exec_match on {unsound}"
            )
        if deduped.semantic_accuracy > deduped.execution_accuracy + 1e-9:
            raise AssertionError(
                f"sem {deduped.semantic_accuracy:.3f} exceeds "
                f"ex {deduped.execution_accuracy:.3f}"
            )
    finally:
        corpus.close()

    dedup_saving = saved / off_lookups if off_lookups else 0.0
    print(f"semantic dedup (n={n_samples}): {saved} of {off_lookups} "
          f"candidate executions removed ({dedup_saving:.0%})")
    print(f"reports byte-identical; sem {deduped.semantic_accuracy:.3f} "
          f"<= ex {deduped.execution_accuracy:.3f} "
          f"(em {deduped.exact_match_accuracy:.3f})")
    return dedup_saving, deduped


def chaos_resilience(workers=4, latency_s=0.002, limit=None, rate=0.1,
                     seed=7, kill_at=6):
    """Resilience drill: a grid sweep under a deterministic fault profile.

    Four checks, all on the same 4-config grid with ``rate`` (default
    10%) fault injection across the LLM, database and disk-cache sites:

    1. **No crashed cells** — every cell completes with a full report;
       injected faults surface as per-record errors or silent retries,
       never unhandled exceptions.  Serial (workers=1) and parallel
       sweeps produce byte-identical records (the fault schedule is a
       pure function of content, not thread timing).
    2. **Fault visibility** — every injected fault is counted in the
       run registry (``repro_faults_injected_total`` by site/kind).
    3. **Corrupt-artifact recovery** — a second pass over the same disk
       cache (whose writes the chaos tier truncated) quarantines the
       corrupt artifacts, recomputes, and still replays byte-identical
       records.
    4. **Kill-and-resume** — the sweep is interrupted after ``kill_at``
       examples (graceful drain → journal checkpoint → partial report),
       then resumed from the journal; the resumed reports are
       byte-identical to an uninterrupted run.

    Returns the (serial, parallel) grids of check 1.
    """
    import tempfile

    from dataclasses import asdict
    from pathlib import Path

    from repro.cache.store import build_cache
    from repro.eval.engine import GridRunner
    from repro.eval.harness import BenchmarkRunner
    from repro.obs.metrics import (
        M_CACHE_CORRUPT,
        M_FAULTS_INJECTED,
        M_JOURNAL_SKIPPED,
        MetricsRegistry,
    )
    from repro.resilience import ChaosPolicy, InterruptController

    policy = ChaosPolicy.uniform(rate, seed=seed)
    corpus = build_corpus(CorpusConfig(seed=1, train_per_db=6, dev_per_db=4))
    configs = _grid_configs()

    def chaos_runner(cache_dir=None):
        cache = build_cache(disk_dir=cache_dir) if cache_dir else None
        return BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(), seed=1,
            llm_latency_s=latency_s, cache=cache, chaos=policy,
        )

    def records_of(grid):
        return [[asdict(r) for r in report.records] for report in grid]

    try:
        # 1. serial == parallel under injection, zero crashed cells.
        registry = MetricsRegistry()
        serial = GridRunner(chaos_runner(), workers=1,
                            registry=registry).sweep(configs, limit=limit)
        parallel = GridRunner(chaos_runner(), workers=workers).sweep(
            configs, limit=limit
        )
        if records_of(serial) != records_of(parallel):
            raise AssertionError(
                "chaos records diverge between workers=1 and "
                f"workers={workers}: the fault schedule is not deterministic"
            )
        for report in serial:
            if report.partial or not len(report):
                raise AssertionError(f"cell {report.label!r} crashed or "
                                     "came back partial under chaos")
        errored = sum(r.error_count for r in serial)

        # 2. every injected fault is visible in the metrics registry.
        faults = registry.counter_series(M_FAULTS_INJECTED)
        fault_sites = {labels["site"] for labels, _ in faults}
        injected = int(sum(value for _, value in faults))
        if not injected or not {"llm", "db"} <= fault_sites:
            raise AssertionError(
                f"expected visible llm+db faults at rate {rate}, "
                f"got {faults}"
            )

        # 3. corrupt disk artifacts are quarantined and recomputed.
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            cache_dir = Path(tmp) / "cache"
            cold = GridRunner(chaos_runner(cache_dir), workers=1).sweep(
                configs, limit=limit
            )
            warm_registry = MetricsRegistry()
            warm = GridRunner(chaos_runner(cache_dir), workers=1,
                              registry=warm_registry).sweep(
                configs, limit=limit
            )
            if records_of(cold) != records_of(warm):
                raise AssertionError(
                    "records diverge after corrupt-artifact recovery"
                )
            quarantined = int(warm_registry.counter_value(M_CACHE_CORRUPT))

            # 4. kill after `kill_at` examples, checkpoint, resume.
            journal = Path(tmp) / "run.jsonl"
            controller = InterruptController()
            ticks = {"n": 0}

            def kill_switch(event):
                ticks["n"] += 1
                if ticks["n"] == kill_at:
                    controller.request_stop()

            interrupted = GridRunner(
                chaos_runner(), workers=workers, progress=kill_switch,
                interrupt=controller,
            ).sweep(configs, limit=limit, journal_path=str(journal))
            if not any(report.partial for report in interrupted):
                raise AssertionError(
                    f"kill at {kill_at} examples left no partial report"
                )
            resume_registry = MetricsRegistry()
            resumed = GridRunner(
                chaos_runner(), workers=workers, registry=resume_registry,
            ).sweep(configs, limit=limit, resume_from=str(journal))
            if records_of(resumed) != records_of(serial):
                raise AssertionError(
                    "resumed records diverge from the uninterrupted run"
                )
            if any(report.partial for report in resumed):
                raise AssertionError("resumed reports still flagged partial")
            skipped = int(resume_registry.counter_value(M_JOURNAL_SKIPPED))
            if not skipped:
                raise AssertionError("resume replayed nothing from the journal")
    finally:
        corpus.close()

    examples = sum(len(report) for report in serial)
    print(f"chaos grid: {len(configs)} configs x "
          f"{examples // len(configs)} examples at {rate:.0%} fault rate "
          f"(seed {seed})")
    print(f"faults injected: {injected} across sites "
          f"{sorted(fault_sites)}; {errored} recorded errors, 0 crashes")
    print(f"serial == parallel: True; corrupt artifacts quarantined: "
          f"{quarantined}")
    print(f"kill at {kill_at} + resume: byte-identical, "
          f"{skipped} examples replayed from journal")
    return serial, parallel


def breaker_drill(failure_threshold=3, cooldown_s=30.0):
    """Exercise the full circuit-breaker state machine on a scripted API.

    Natural breaker trips need ``failure_threshold`` *consecutive*
    retryable failures — improbable at smoke fault rates — so this
    drill scripts the transport: fail until the breaker opens, verify
    fail-fast while open, advance a fake clock past the cooldown, and
    let the half-open probe succeed.  Asserts the closed → open →
    half-open → closed cycle really happened (open and half-open
    transitions each >= 1) and that fail-fast never reached the wire.
    """
    from repro.errors import CircuitOpenError, ModelError
    from repro.llm.api_client import ApiLLMClient, RetryPolicy, TransportError
    from repro.obs.metrics import M_LLM_CIRCUIT, MetricsRegistry
    from repro.prompt.builder import PromptBuilder
    from repro.prompt.organization import get_organization
    from repro.prompt.representation import get_representation
    from repro.resilience import HALF_OPEN, OPEN, CircuitBreaker

    corpus = build_corpus(
        CorpusConfig(seed=1, train_per_db=4, dev_per_db=2,
                     domains=["pets_1", "orchestra_hall"])
    )
    try:
        builder = PromptBuilder(get_representation("CR_P"),
                                get_organization("FI_O"))
        schema = corpus.dev.schema(corpus.dev.db_ids()[0])
        prompt = builder.build(schema, "How many singers are there?")
    finally:
        corpus.close()

    clock = {"now": 0.0}
    breaker = CircuitBreaker(failure_threshold=failure_threshold,
                             cooldown_s=cooldown_s,
                             clock=lambda: clock["now"])
    registry = MetricsRegistry()
    outcomes = {"healthy": False, "calls": 0}

    def transport(request):
        outcomes["calls"] += 1
        if not outcomes["healthy"]:
            raise TransportError("server error")
        return {"choices": [{"message": {"content": "SELECT count(*)"}}]}

    client = ApiLLMClient(
        model_id="gpt-4", transport=transport, breaker=breaker,
        retry=RetryPolicy(max_attempts=1), sleep=lambda _: None,
    )
    client.metrics = registry

    # Consecutive failures trip the breaker open.
    for _ in range(failure_threshold):
        try:
            client.generate(prompt)
        except ModelError:
            pass
    assert breaker.state == OPEN, f"breaker not open: {breaker.state}"

    # While open, calls fail fast without touching the transport.
    wire_calls = outcomes["calls"]
    try:
        client.generate(prompt)
        raise AssertionError("open breaker let a call through")
    except CircuitOpenError:
        pass
    assert outcomes["calls"] == wire_calls, "fail-fast reached the wire"

    # Past the cooldown, one half-open probe succeeds and closes it.
    clock["now"] += cooldown_s + 1.0
    outcomes["healthy"] = True
    assert breaker.state == HALF_OPEN
    client.generate(prompt)
    assert breaker.state_code == 0, "probe success did not close the breaker"

    opens = breaker.transition_count(OPEN)
    probes = breaker.transition_count(HALF_OPEN)
    if opens < 1 or probes < 1:
        raise AssertionError(
            f"breaker cycle incomplete: {breaker.transitions}"
        )
    gauge = registry.gauge_value(M_LLM_CIRCUIT, {"model": "gpt-4"})
    print(f"breaker drill: {opens} open, {probes} half-open transitions; "
          f"fail-fast blocked at the client; circuit gauge now {gauge:.0f} "
          "(closed)")
    return breaker


def main(argv=None):
    import argparse

    from repro.obs.baseline import (
        diff_baselines,
        format_diff,
        load_baseline,
        write_baseline,
    )

    parser = argparse.ArgumentParser(
        description="evaluation-engine speedup + artifact-cache replay "
                    "+ instrumentation-overhead + chaos-resilience checks"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="exit non-zero if parallel is slower than serial, "
                             "a warm cache replay is slower than cold, or "
                             "instrumentation overhead exceeds 5%%")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--latency", type=float, default=0.02,
                        help="simulated per-generation latency in seconds")
    parser.add_argument("--limit", type=int, default=None)
    parser.add_argument("--artifacts-dir", default=None,
                        help="keep trace JSONL + Prometheus snapshot from the "
                             "instrumentation check in this directory")
    parser.add_argument("--chaos-only", action="store_true",
                        help="run only the chaos-resilience and breaker "
                             "drills (the CI chaos-smoke job)")
    parser.add_argument("--chaos-rate", type=float, default=0.1,
                        help="fault-injection rate for the resilience drill")
    parser.add_argument("--chaos-seed", type=int, default=7,
                        help="seed of the drill's fault schedule")
    parser.add_argument("--baseline-out", default=None,
                        help="write this run's headline metrics as a "
                             "BENCH_substrate.json snapshot")
    parser.add_argument("--baseline-compare", default=None,
                        help="diff this run against a prior snapshot and "
                             "exit non-zero on regressions")
    parser.add_argument("--baseline-threshold", type=float, default=0.1,
                        help="allowed relative slip per metric before the "
                             "comparison fails (default 10%%)")
    args = parser.parse_args(argv)
    if args.chaos_only and (args.baseline_out or args.baseline_compare):
        parser.error("baseline snapshots need the full benchmark run; "
                     "drop --chaos-only")
    metrics = None
    if not args.chaos_only:
        speedup, _ = engine_speedup(workers=args.workers,
                                    latency_s=args.latency,
                                    limit=args.limit, smoke=args.smoke)
        print()
        cache_speedup, _, _ = cache_roundtrip(
            latency_s=args.latency, limit=args.limit, smoke=args.smoke
        )
        print()
        overhead, _, _ = instrumentation_overhead(
            latency_s=args.latency, limit=args.limit, smoke=args.smoke,
            artifacts_dir=args.artifacts_dir,
        )
        print()
        analyze_share, _ = analyze_overhead(
            latency_s=args.latency, limit=args.limit, smoke=args.smoke
        )
        print()
        transpile_share, _ = transpile_overhead(
            latency_s=args.latency, limit=args.limit, smoke=args.smoke
        )
        print()
        recovery_rate, _ = repair_loop_gate(
            latency_s=args.latency, limit=args.limit, smoke=args.smoke
        )
        print()
        dedup_saving, _ = semantic_dedup_gate(
            latency_s=args.latency, limit=args.limit, smoke=args.smoke
        )
        print()
        # The overhead fraction hovers around zero and can dip negative,
        # which degenerates relative diffs (a <=0 baseline turns any
        # increase into an infinite regression) — snapshot the
        # instrumented/baseline wall-clock ratio (~1.0) instead.
        metrics = {
            "engine_speedup": speedup,
            "cache_speedup": cache_speedup,
            "instrumentation_slowdown": 1.0 + overhead,
            "analyze_share": analyze_share,
            "transpile_share": transpile_share,
            "repair_recovery_rate": recovery_rate,
            "semantic_dedup_saving": dedup_saving,
        }
    chaos_resilience(workers=args.workers, limit=args.limit,
                     rate=args.chaos_rate, seed=args.chaos_seed)
    print()
    breaker_drill()
    if metrics is not None and (args.baseline_out or args.baseline_compare):
        directions = {
            "engine_speedup": "higher",
            "cache_speedup": "higher",
            "instrumentation_slowdown": "lower",
            "analyze_share": "lower",
            "transpile_share": "lower",
            "repair_recovery_rate": "higher",
            "semantic_dedup_saving": "higher",
        }
        meta = {"bench": "bench_substrate", "workers": args.workers,
                "latency_s": args.latency, "limit": args.limit}
        if args.baseline_out:
            path = write_baseline(args.baseline_out, "substrate", metrics,
                                  directions, meta=meta)
            print(f"\nbaseline snapshot written: {path}")
        if args.baseline_compare:
            baseline = load_baseline(args.baseline_compare)
            regressions, rows = diff_baselines(
                baseline, {"metrics": metrics, "directions": directions},
                threshold=args.baseline_threshold,
            )
            print()
            print(format_diff(rows))
            if regressions:
                names = ", ".join(row.metric for row in regressions)
                print(f"BASELINE FAIL: regressed vs "
                      f"{args.baseline_compare}: {names}")
                return 1
            print(f"baseline OK vs {args.baseline_compare} "
                  f"(threshold {args.baseline_threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
