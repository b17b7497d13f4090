"""The ``serve-mixed`` workload: an open-loop HTTP load against SqlServer.

One process boots an in-process :class:`repro.api.SqlServer` over the
seeded corpus and drives it through two persistent HTTP connections,
with all its threads on one CPU at a time.
Requests follow a fixed-rate schedule (open loop: request ``i`` of a
chunk is due at ``i / rate`` seconds whether or not earlier ones have
finished), and each request's latency is timed from when it was due,
so a stall also charges the requests queued behind it.

The run alternates low- and high-rate chunks so that each rate is
sampled over the whole run, then climbs the rate ladder.  Each chunk
starts from an empty artifact cache and draws its requests from a
``random.Random`` seeded by the workload seed and the chunk name, in
blocks of 20 that hold the mix exactly: 11 ``/v1/generate`` (n=1),
2 ``/v1/generate`` with ``n_samples=5, feedback_rounds=2``, 4
``/v1/lint`` (gold and seeded broken SQL the analyzer must refuse, in
turn) and 3 ``/v1/execute`` of gold SQL.  Generates of each kind
alternate between a new question and a repeat of one asked earlier in
the chunk.  Requests come from four tenants under a rate limiter whose
budget the offered load never reaches.

The simulated LLM answers with zero latency, so the numbers measure
this program's CPU work; with only two connections a simulated wait
would cap the load at the generator instead of the server.
"""

from __future__ import annotations

import dataclasses
import gc
import http.client
import itertools
import json
import os
import random
import sys
import threading
import time
import typing
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.api import (
    WIRE_SCHEMA_VERSION,
    ArtifactCache,
    BenchmarkRunner,
    EvalEngine,
    ExecuteRequest,
    ExecuteResponse,
    GenerateRequest,
    GenerateResponse,
    LintRequest,
    LintResponse,
    MetricsRegistry,
    RateLimiter,
    SqlServer,
    SqlService,
)
from repro.dataset.generator.corpus import Corpus, CorpusConfig, build_corpus
from repro.db.execution import results_match
from repro.errors import ExecutionError
from repro.eval.exact_match import exact_match
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
    pin_threads,
    quantile,
)
from .tracing import Recorder, self_time_table

#: Latency limit on p99 (ms), timed from when a request was due.
LIMIT_MS = 250.0

#: Fixed rate ladder (requests/s).  On a 2-core host every response on
#: a busy kept-alive connection stalls about 44 ms (the server writes
#: headers and body in separate packets without TCP_NODELAY, so the body
#: waits for the client's delayed ACK), which caps two connections near
#: 42 requests/s.  The low rate is about a quarter of that capacity and
#: the high rate about two-thirds; the steps above run until one fails,
#: so a faster server climbs further.
LOW_RATE, HIGH_RATE = 10.0, 28.0
UPPER_RATES = (48.0, 80.0, 140.0, 250.0)

#: Requests come in blocks of 20 that hold the mix exactly (55% plain
#: generates, 10% voting generates, 20% lints, 15% executes), shuffled
#: within the block, so every chunk does the same kinds of work.
BLOCK = ("generate",) * 11 + ("vote",) * 2 + ("lint",) * 4 + ("execute",) * 3

#: Blocks per chunk: 40 requests (4 s) at the low rate, 60 (2.1 s) at
#: the high rate, 60 per upper step, and 60 at the high rate for the
#: untimed warm-up (with fewer, the first timed chunk ran slower).
LOW_BLOCKS, HIGH_BLOCKS, UPPER_BLOCKS, WARMUP_BLOCKS = 2, 3, 3, 3

#: Seconds of ``--seconds`` kept for the upper ladder steps.
UPPER_RESERVE_S = 4.0

#: A step is abandoned once the generator runs this late (s): the
#: backlog is growing and the step has failed.
ABORT_LATENESS_S = 0.5

#: Backlog growth: median lateness of a chunk's last quarter of requests
#: exceeding that of its first quarter by more than this (ms).
GROWTH_MS = 25.0

CONNECTIONS = 2
TENANTS = 4
VOTE_SAMPLES, VOTE_ROUNDS = 5, 2

#: Per-tenant limiter budget, far above any offered rate.
LIMITER_RATE = 10_000.0

PATHS = {"generate": "/v1/generate", "vote": "/v1/generate",
         "lint": "/v1/lint", "execute": "/v1/execute"}
RESPONSES = {"/v1/generate": GenerateResponse, "/v1/lint": LintResponse,
             "/v1/execute": ExecuteResponse}


# -- request stream --------------------------------------------------------------


@dataclass(frozen=True)
class Planned:
    """One scheduled request."""

    offset_s: float
    kind: str
    request: object
    example: object
    #: For lint: whether the SQL was deliberately broken.
    broken: bool = False

    @property
    def path(self) -> str:
        return PATHS[self.kind]


def _break_sql(rng: random.Random, example, schema) -> str:
    """Seeded broken SQL the analyzer must refuse (fatal diagnostic)."""
    table = schema.table_names()[0]
    choice = rng.randrange(3)
    if choice == 0:
        return f"DELETE FROM {table}"
    if choice == 1:
        return f"{example.query}; DROP TABLE {table}"
    head, sep, tail = example.query.partition(" FROM ")
    name, _, rest = tail.partition(" ")
    return f"{head}{sep}{name}_missing {rest}".rstrip()


def fresh_questions(seed: int, corpus: Corpus) -> Iterator:
    """The dev questions in a seeded order, cycled.  Chunks take their new
    questions from here in turn, so a run covers the whole dev split."""
    order = list(corpus.dev.examples)
    random.Random(f"perfbench-serve:{seed}:order").shuffle(order)
    return itertools.cycle(order)


def plan_chunk(seed: int, name: str, corpus: Corpus, rate: float,
               blocks: int, fresh: Iterator) -> List[Planned]:
    """The request schedule of one chunk: a pure function of its args and
    of how many questions earlier chunks took from ``fresh``.

    Generates of each kind alternate between a new question (the next
    from ``fresh``) and a repeat of one asked earlier in the chunk; lints
    alternate between gold and broken SQL.
    """
    rng = random.Random(f"perfbench-serve:{seed}:{name}")
    examples = list(corpus.dev.examples)
    kinds: List[str] = []
    for _ in range(blocks):
        block = list(BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    asked: Dict[str, list] = {"generate": [], "vote": []}
    turns = {"generate": 0, "vote": 0, "lint": 0}
    planned: List[Planned] = []
    for index, kind in enumerate(kinds):
        tenant = f"tenant-{rng.randrange(TENANTS)}"
        turn = turns.get(kind, 0)
        turns[kind] = turn + 1
        broken = False
        if kind in asked:
            seen = asked[kind]
            if turn % 2 == 1:
                example = rng.choice(seen)
            else:
                example = next(fresh)
                seen.append(example)
            samples, rounds = (VOTE_SAMPLES, VOTE_ROUNDS) if kind == "vote" else (1, 0)
            request = GenerateRequest(
                question=example.question, db_id=example.db_id, tenant=tenant,
                n_samples=samples, feedback_rounds=rounds,
            )
        elif kind == "lint":
            example = rng.choice(examples)
            broken = turn % 2 == 1
            sql = (_break_sql(rng, example, corpus.dev.schema(example.db_id))
                   if broken else example.query)
            request = LintRequest(db_id=example.db_id, sql=sql, tenant=tenant)
        else:
            example = rng.choice(examples)
            request = ExecuteRequest(db_id=example.db_id, sql=example.query,
                                     tenant=tenant)
        planned.append(Planned(index / rate, kind, request, example, broken))
    return planned


# -- strict response decoding ------------------------------------------------------


def _type_ok(value, hint) -> bool:
    origin = typing.get_origin(hint)
    if origin is not None:
        return isinstance(value, origin)
    if hint is bool:
        return type(value) is bool
    if hint is int:
        return type(value) is int
    return isinstance(value, hint)


def decode_response(cls, raw: bytes):
    """Strictly decode a 200 response body into its wire dataclass.

    The response schemas have no ``from_json``; this applies the same
    rules the request parsers do: a JSON object, the current schema
    version, exactly the schema's fields, each of its declared type,
    and ``to_json`` of the decoded value reproducing the body.

    Raises:
        ValueError: the body breaks any of these rules.
    """
    payload = json.loads(raw.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("response body is not a JSON object")
    if payload.get("version") != WIRE_SCHEMA_VERSION:
        raise ValueError(f"wire version {payload.get('version')!r}")
    hints = typing.get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    if set(payload) != set(names) | {"version"}:
        raise ValueError(f"fields {sorted(payload)} != schema {sorted(names)}")
    for name in names:
        if not _type_ok(payload[name], hints[name]):
            raise ValueError(f"field {name!r} has type {type(payload[name])}")
    value = cls(**{name: payload[name] for name in names})
    if value.to_json() != payload:
        raise ValueError("body does not round-trip through to_json")
    return value


# -- chunks ---------------------------------------------------------------------------


@dataclass
class Outcome:
    due: float
    sent: float
    #: When the status line and headers had been read.  The server writes
    #: the body right after them, so the wait from here to ``done`` is
    #: the transport's (the delayed-ACK stall), not the program's work.
    headers: float
    done: float
    status: int
    request_id: str
    body: bytes


@dataclass
class Chunk:
    """One chunk of requests at one rate, as run."""

    rate: float
    planned: List[Planned]
    #: One per planned request; ``None`` for requests never sent.
    outcomes: List[Optional[Outcome]]
    #: Process CPU seconds, less host-speed sampling.
    cpu_s: float
    aborted: bool
    cache_stats: Dict[str, Dict[str, int]]
    cache_entries: int
    #: Factor to the reference host speed (1.0 for an uncalibrated chunk).
    scale: float

    def latencies_ms(self) -> List[float]:
        """Latency from due time; a failed or unsent request is infinite."""
        return [
            (o.done - o.due) * 1e3 if o is not None and o.status == 200
            else float("inf")
            for o in self.outcomes
        ]

    def scaled_latencies_ms(self) -> List[float]:
        """Latencies at the reference host speed: the time until the
        headers arrived is scaled, the transport's wait for the body not."""
        return [
            ((o.headers - o.due) * self.scale + o.done - o.headers) * 1e3
            if o is not None and o.status == 200 else float("inf")
            for o in self.outcomes
        ]

    def sent(self) -> List[Outcome]:
        return [o for o in self.outcomes if o is not None]

    def ok_within_limit(self) -> int:
        return sum(1 for latency in self.latencies_ms() if latency <= LIMIT_MS)

    def wall_s(self) -> float:
        sent = self.sent()
        return max(o.done for o in sent) - min(o.due for o in sent)

    def achieved_rate(self) -> float:
        """Requests answered within the limit per second of chunk wall
        (first due time to last answer)."""
        return self.ok_within_limit() / self.wall_s()

    def cpu_ms_per_request(self) -> float:
        return self.cpu_s * 1e3 / len(self.sent())

    def lateness_ms(self) -> List[float]:
        return [(o.sent - o.due) * 1e3 for o in self.sent()]

    def backlog_grows(self) -> bool:
        lateness = self.lateness_ms()
        quarter = max(1, len(lateness) // 4)
        return self.aborted or (
            median(lateness[-quarter:]) - median(lateness[:quarter]) > GROWTH_MS
        )

    def passes(self) -> bool:
        return (quantile(self.latencies_ms(), 0.99) <= LIMIT_MS
                and not self.backlog_grows())


class ServeBench:
    """The serve-mixed workload over one seeded corpus."""

    def __init__(self, seed: int, config: Optional[CorpusConfig] = None):
        self.seed = seed
        self.corpus_config = config or corpus_config(seed)
        self.corpus: Optional[Corpus] = None
        self.server: Optional[SqlServer] = None
        self.connections: List[http.client.HTTPConnection] = []
        self.fresh: Optional[Iterator] = None
        self._chunks_run = 0

    # -- set-up ------------------------------------------------------------------

    def build(self) -> Tuple[Corpus, SqlServer]:
        """Corpus, pool, runner, service (plan and selection strategy) and
        a booted server, with every collaborator passed explicitly."""
        corpus = build_corpus(self.corpus_config)
        runner = BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(), seed=self.seed,
            cache=ArtifactCache(), repair=False, feedback_rounds=0,
        )
        service = SqlService(
            runner, dail_entry().config, metrics=MetricsRegistry(),
            limiter=RateLimiter(rate=LIMITER_RATE, capacity=LIMITER_RATE),
            tracer=NULL_TRACER, feedback_rounds=0,
        )
        server = SqlServer(service, host="127.0.0.1", port=0).start_background()
        host, port = server.address
        probe = http.client.HTTPConnection(host, port, timeout=30)
        try:
            probe.request("GET", "/healthz")
            status = probe.getresponse().status
        finally:
            probe.close()
        if status != 200:
            raise RuntimeError(f"server not healthy: /healthz -> {status}")
        return corpus, server

    @staticmethod
    def _close(built: Tuple[Corpus, SqlServer]) -> None:
        corpus, server = built
        server.close()
        corpus.close()

    def setup(self, clock: SetupClock) -> None:
        self.corpus, self.server = clock.build(self.build)
        self.fresh = fresh_questions(self.seed, self.corpus)
        host, port = self.server.address
        self.connections = [
            http.client.HTTPConnection(host, port, timeout=30)
            for _ in range(CONNECTIONS)
        ]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        if self.server is not None:
            self._close((self.corpus, self.server))
            self.server = None

    @property
    def runner(self) -> BenchmarkRunner:
        return self.server.service.runner

    # -- one chunk ----------------------------------------------------------------

    def run_chunk(self, name: str, rate: float, blocks: int,
                  calibrate: bool = False) -> Chunk:
        """One chunk from an empty artifact cache, with the whole process
        (server and load generator) on one CPU.
        With ``calibrate``, each sender samples the host's speed after
        each response."""
        planned = plan_chunk(self.seed, name, self.corpus, rate, blocks,
                             self.fresh)
        speed = HostSpeed()
        outcomes: List[Optional[Outcome]] = [None] * len(planned)
        bodies = [json.dumps(p.request.to_json()).encode() for p in planned]
        cursor = iter(range(len(planned)))
        lock = threading.Lock()
        aborted = threading.Event()
        self.runner.cache.clear(disk=False)
        gc.collect()
        start = time.perf_counter() + 0.005

        def send(connection: http.client.HTTPConnection) -> None:
            while not aborted.is_set():
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + planned[index].offset_s
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                if sent - due > ABORT_LATENESS_S:
                    aborted.set()
                    return
                request_id = f"pb-{name}-{index}"
                try:
                    connection.request(
                        "POST", planned[index].path, body=bodies[index],
                        headers={"Content-Type": "application/json",
                                 "X-Request-Id": request_id},
                    )
                    response = connection.getresponse()
                    headers = time.perf_counter()
                    body = response.read()
                    status = response.status
                    echoed = response.getheader("X-Request-Id", "")
                except (OSError, http.client.HTTPException) as exc:
                    print(f"request {request_id} failed: {exc!r}", file=sys.stderr)
                    connection.close()
                    headers = time.perf_counter()
                    status, echoed, body = 0, "", b""
                outcomes[index] = Outcome(due, sent, headers,
                                          time.perf_counter(),
                                          status, echoed, body)
                if calibrate:
                    speed.sample()

        senders = [threading.Thread(target=send, args=(c,), daemon=True)
                   for c in self.connections]
        cpus = sorted(os.sched_getaffinity(0))
        # Two chunks per CPU in turn, so that low- and high-rate chunks,
        # which alternate, each run on every CPU.
        pin_threads([cpus[self._chunks_run // 2 % len(cpus)]])
        self._chunks_run += 1
        try:
            cpu_start = time.process_time()
            for sender in senders:
                sender.start()
            for sender in senders:
                sender.join(timeout=120)
                if sender.is_alive():
                    raise RuntimeError("load generator thread did not finish")
            cpu = time.process_time() - cpu_start - speed.cpu_s
        finally:
            pin_threads(cpus)
        stats = self.runner.cache.stats()
        return Chunk(
            rate=rate, planned=planned, outcomes=outcomes, cpu_s=cpu,
            aborted=aborted.is_set(), cache_stats=stats,
            cache_entries=sum(len(self.runner.cache.stage_entries(s))
                              for s in stats),
            scale=speed.scale if calibrate else 1.0,
        )

    def chunks(self, seconds: float, prefix: str,
               clock: Optional[SetupClock] = None, calibrate: bool = False
               ) -> Tuple[List[Chunk], List[Chunk]]:
        """Alternating low- and high-rate chunks until ``seconds`` have gone
        by (at least two of each), with the clock's spare set-ups between
        them.  Interleaving spreads each rate over the whole run."""
        lows: List[Chunk] = []
        highs: List[Chunk] = []
        started = time.perf_counter()
        while len(lows) < 2 or time.perf_counter() < started + seconds:
            index = len(lows)
            lows.append(self.run_chunk(f"{prefix}low{index}", LOW_RATE,
                                       LOW_BLOCKS, calibrate))
            highs.append(self.run_chunk(f"{prefix}high{index}", HIGH_RATE,
                                        HIGH_BLOCKS, calibrate))
            if clock is not None and clock.spare_due(started, seconds):
                clock.spare(self.build, self._close)
        while clock is not None and len(clock.times) < SETUP_REPEATS:
            clock.spare(self.build, self._close)
        return lows, highs

    def upper_steps(self) -> List[Chunk]:
        """Ladder steps above the high rate, up to the first that fails."""
        steps: List[Chunk] = []
        for index, rate in enumerate(UPPER_RATES):
            steps.append(self.run_chunk(f"upper{index}", rate, UPPER_BLOCKS))
            if not steps[-1].passes():
                break
        return steps

    # -- checks ------------------------------------------------------------------

    def batch_sql(self) -> Dict[Tuple[str, str, int, int], str]:
        """The batch pipeline's SQL for every dev question, at the two
        (n_samples, feedback_rounds) settings the stream uses."""
        corpus = self.corpus
        out: Dict[Tuple[str, str, int, int], str] = {}
        for samples, rounds in ((1, 0), (VOTE_SAMPLES, VOTE_ROUNDS)):
            runner = BenchmarkRunner(
                corpus.dev, corpus.train, corpus.pool(), seed=self.seed,
                cache=ArtifactCache(), repair=False, feedback_rounds=rounds,
            )
            report = EvalEngine(runner, workers=1, tracer=NULL_TRACER).run(
                dail_entry().config, n_samples=samples)
            for record in report.records:
                out[(record.db_id, record.question, samples, rounds)] = (
                    record.predicted_sql)
        return out

    def check_and_score(self, chunks: List[Chunk], checks: CheckFailures
                        ) -> Dict[str, float]:
        """Decode every response strictly and check it; then score the
        generated SQL of each distinct (question, n_samples,
        feedback_rounds) served against gold (EX, EM, proved equal)."""
        pool = self.corpus.pool()
        reference = self.batch_sql()
        served: Dict[Tuple[str, str, int, int], Tuple[object, object]] = {}
        mismatches = 0
        gold_rows: Dict[Tuple[str, str], object] = {}

        def rows_of(db_id: str, sql: str):
            key = (db_id, sql)
            if key not in gold_rows:
                gold_rows[key] = pool.get(db_id).execute(sql)
            return gold_rows[key]

        for chunk in chunks:
            for planned, outcome in zip(chunk.planned, chunk.outcomes):
                if outcome is None or outcome.status != 200:
                    continue
                example = planned.example
                try:
                    response = decode_response(RESPONSES[planned.path],
                                               outcome.body)
                except ValueError as exc:
                    checks.require(False, f"{planned.path}: {exc}")
                    continue
                checks.require(
                    response.request_id == outcome.request_id != "",
                    f"{planned.path}: request id {response.request_id!r} "
                    f"vs header {outcome.request_id!r}",
                )
                if planned.kind == "lint":
                    checks.require(
                        response.fatal == planned.broken,
                        f"lint of {'broken' if planned.broken else 'gold'} SQL "
                        f"{planned.request.sql!r}: fatal={response.fatal}",
                    )
                elif planned.kind == "execute":
                    expected = [list(row) for row in
                                rows_of(example.db_id, example.query)]
                    checks.require(response.rows == expected,
                                   f"execute rows differ for {example.query!r}")
                else:
                    request = planned.request
                    key = (example.db_id, example.question,
                           request.n_samples, request.feedback_rounds)
                    if reference.get(key) != response.sql:
                        mismatches += 1
                        checks.require(
                            False,
                            f"serve != batch for {key}: {response.sql!r} vs "
                            f"{reference.get(key)!r}",
                        )
                    served[key] = (example, response)
        if mismatches:
            print(f"serve != batch: {mismatches} mismatches", file=sys.stderr)
        checks.require(bool(served), "no generate succeeded")
        scores = {"ex": 0, "em": 0, "sem": 0, "tokens": 0}
        for example, response in served.values():
            gold = rows_of(example.db_id, example.query)
            try:
                predicted = pool.get(example.db_id).execute(response.sql)
                ex = results_match(gold, predicted, example.query)
            except ExecutionError:
                ex = False
            sem = self.runner.pipeline.semantic_match(
                example.db_id, example.query, response.sql)
            checks.require(not (sem and not ex),
                           f"sem_not_ex for {response.sql!r}")
            scores["ex"] += ex
            scores["em"] += exact_match(example.query, response.sql)
            scores["sem"] += sem
            scores["tokens"] += response.prompt_tokens
        count = max(len(served), 1)
        return {
            "ex_accuracy": scores["ex"] / count,
            "em_accuracy": scores["em"] / count,
            "sem_accuracy": scores["sem"] / count,
            "prompt_tokens_per_example": scores["tokens"] / count,
        }


def _attempted_failed(chunks: List[Chunk]) -> Tuple[int, int]:
    sent = [o for chunk in chunks for o in chunk.sent()]
    return len(sent), sum(1 for o in sent if o.status != 200)


# -- timed run ---------------------------------------------------------------------


def _best(chunks: List[Chunk]) -> Chunk:
    """The chunk with the lowest p99: the one least touched by the host's
    slow stretches."""
    return min(chunks, key=lambda chunk: quantile(chunk.latencies_ms(), 0.99))


def timed_run(bench: ServeBench, seconds: float
              ) -> Tuple[Dict[str, float], CheckFailures, int, int]:
    """Each rate is measured in several chunks spread over the run.

    Latencies and CPU are read at the reference host speed (see
    :meth:`Chunk.scaled_latencies_ms`).  Each latency percentile pools
    every request of its rate; CPU is the median over all chunks.
    Rates, the latency limit and the ladder use the latencies as
    measured, and the ladder's low and high steps are the chunks with
    the lowest p99.  A chunk has at most 60 requests, so its p99 is its
    slowest request."""
    checks = CheckFailures()
    clock = SetupClock()
    bench.setup(clock)
    try:
        bench.run_chunk("warmup", HIGH_RATE, WARMUP_BLOCKS)
        lows, highs = bench.chunks(max(seconds - UPPER_RESERVE_S, 1.0), "",
                                   clock, calibrate=True)
        upper = bench.upper_steps()
        low, high = _best(lows), _best(highs)
        # Ladder: the low and high rates (their best chunks), then the
        # upper steps; the highest step below the first failure counts.
        passing = 0.0
        for step in [low, high] + upper:
            if not step.passes():
                break
            passing = step.achieved_rate()
        steps = lows + highs + upper
        timed = lows + highs
        low_ms = [ms for chunk in lows for ms in chunk.scaled_latencies_ms()]
        metrics = {
            "setup_s": clock.median_s,
            # Requests answered within the limit per second of wall, over
            # every high-rate chunk.
            "throughput_per_s":
                sum(chunk.ok_within_limit() for chunk in highs)
                / sum(chunk.wall_s() for chunk in highs),
            "cpu_ms_per_op": median(
                [chunk.cpu_ms_per_request() * chunk.scale for chunk in timed]),
            "latency_p50_ms": quantile(low_ms, 0.5),
            "latency_p99_ms": quantile(low_ms, 0.99),
            "latency_p99_high_ms": quantile(
                [ms for chunk in highs for ms in chunk.scaled_latencies_ms()],
                0.99),
            "max_rate_per_s": passing,
            "ok_share": sum(chunk.ok_within_limit() for chunk in timed)
                        / sum(len(chunk.planned) for chunk in timed),
        }
        print("chunks p99 ms: low " + " ".join(
            f"{quantile(c.latencies_ms(), 0.99):.1f}" for c in lows)
            + " | high " + " ".join(
            f"{quantile(c.latencies_ms(), 0.99):.1f}" for c in highs)
            + " | upper " + " ".join(
            f"{c.rate:g}/s:{'pass' if c.passes() else 'fail'}" for c in upper)
            + " | scales " + " ".join(f"{c.scale:.2f}" for c in timed),
            file=sys.stderr)
        metrics.update(bench.check_and_score(steps, checks))
        metrics["peak_rss_mb"] = peak_rss_mb()
        attempted, failed = _attempted_failed(steps)
    finally:
        bench.close()
    return metrics, checks, attempted, failed


# -- traced run ----------------------------------------------------------------------


def traced_run(bench: ServeBench, seconds: float, trace_path
               ) -> Tuple[Dict[str, float], CheckFailures, int, int]:
    """Untraced low- and high-rate chunks, then the same two traced.
    Per-layer numbers come from the traced chunks; cache statistics,
    generator lateness and the tracing baseline from the untraced ones.

    Which requests race for the same cache entry depends on timing, so
    serve counts are not claimed to repeat exactly."""
    from .tracing import write_trace

    checks = CheckFailures()
    bench.setup(SetupClock())
    try:
        bench.run_chunk("warmup", HIGH_RATE, WARMUP_BLOCKS)
        plain = [chunk for pair in zip(*bench.chunks(seconds / 2, "plain-"))
                 for chunk in pair]
        recorder = Recorder()
        llm_class = type(bench.server.service.coalescer.llm)
        bindings = recorder.install(llm_class, serve=True)
        before = layers.registry_counts(bench.server.service.metrics)
        try:
            traced = [chunk
                      for pair in zip(*bench.chunks(seconds / 2, "traced-"))
                      for chunk in pair]
            trace = recorder.take()
        finally:
            recorder.uninstall()
        after = layers.registry_counts(bench.server.service.metrics)
        counts = {key: after[key] - before[key] for key in after}
        for name, count in bindings.items():
            checks.require(count > 0, f"traced run: no binding of {name} wrapped")
        totals = trace.totals()
        for name in ("serve.generate", "serve.lint", "serve.execute",
                     "coalesce.generate", "ratelimit.acquire", "select",
                     "build", "generate_batch", "generate", "extract",
                     "analyze", "parse", "execute"):
            checks.require(name in totals and totals[name].calls > 0,
                           f"traced run: layer {name} recorded no calls")
        requests = sum(len(chunk.sent()) for chunk in traced)
        client_s = sum(o.done - o.sent for chunk in traced for o in chunk.sent())
        service_s = sum(totals[f"serve.{op}"].incl_wall_s
                        for op in ("generate", "lint", "execute")
                        if f"serve.{op}" in totals)
        plain_cpu = sum(p.cpu_s for p in plain) / sum(len(p.sent()) for p in plain)
        traced_cpu = sum(p.cpu_s for p in traced) / requests
        rates_by_chunk = [layers.cache_hit_rates(p.cache_stats) for p in plain]
        extra = {
            **{name: median([r[name] for r in rates_by_chunk])
               for name in rates_by_chunk[0]},
            "cache.entries": median([p.cache_entries for p in plain]),
            "serve.http_ms_per_request": (client_s - service_s) * 1e3 / requests,
            "generator.lateness_p99_ms": quantile(
                [ms for p in plain for ms in p.lateness_ms()], 0.99),
            "trace.overhead_share": traced_cpu / plain_cpu - 1.0,
        }
        metrics = layers.layer_metrics(trace, requests, counts, extra)
        bench.check_and_score(plain + traced, checks)
        table = self_time_table(totals, requests)
        print(table, file=sys.stderr)
        write_trace(trace_path, [trace], table)
        attempted, failed = _attempted_failed(plain + traced)
    finally:
        bench.close()
    return metrics, checks, attempted, failed
