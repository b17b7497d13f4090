"""Inputs, statistics and set-up timing shared by every workload.

Every input is a pure function of the workload seed: the corpus is the
canonical ``FULL_CONFIG`` corpus (144 dev questions over 6 unseen
databases, 600 cross-domain train candidates) generated with
``CorpusConfig.seed`` set to the seed, and the serve request stream is
drawn from a ``random.Random`` seeded from it.  The program under test
only ever sees the generated corpus and requests.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import resource
import statistics
import threading
import time
from typing import Callable, List, Sequence, TypeVar

from repro.core.baselines import LeaderboardEntry, leaderboard_entries
from repro.dataset.generator.corpus import CorpusConfig
from repro.experiments.context import FULL_CONFIG

T = TypeVar("T")

#: Set-ups timed per run; ``setup_s`` is their median.  The first is the
#: one the run uses; the others are spare builds spread through the
#: timed part of the run, so the median samples the whole run rather
#: than one moment of the host.
SETUP_REPEATS = 7

#: Host-speed samples taken just before and just after each set-up.
SETUP_SPEED_SAMPLES = 5

#: Iterations of :func:`calibration_loop` per host-speed sample, and the
#: thread-CPU seconds the loop takes on an idle core of the 2-core VM the
#: benchmark was built on.  Timings are reported at that speed.
CALIBRATION_ITERATIONS = 2000
CALIBRATION_REF_S = 0.5e-3

#: End-to-end metric units, in report order (BENCHMARK.json lists the same).
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "latency_p99_high_ms": "ms",
    "max_rate_per_s": "1/s",
    "ok_share": "ratio",
    "ex_accuracy": "ratio",
    "em_accuracy": "ratio",
    "sem_accuracy": "ratio",
    "prompt_tokens_per_example": "count",
    "peak_rss_mb": "MB",
}


def corpus_config(seed: int) -> CorpusConfig:
    """The canonical full-size corpus, generated from ``seed``."""
    return dataclasses.replace(FULL_CONFIG, seed=seed)


def dail_entry() -> LeaderboardEntry:
    """The paper's DAIL-SQL leaderboard entry: gpt-4, CR_P + DAIL_S +
    DAIL_O, k=5, foreign keys, one sample (batch-dail and serve-mixed)."""
    return next(entry for entry in leaderboard_entries()
                if entry.name == "DAIL-SQL (GPT-4)")


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least a share
    ``q`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def pin_threads(cpus: Sequence[int]) -> None:
    """Set the CPU affinity of every thread of this process (threads
    started later inherit it from the thread that starts them)."""
    for task in os.listdir("/proc/self/task"):
        try:
            os.sched_setaffinity(int(task), cpus)
        except OSError:  # the thread ended meanwhile
            pass


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration_loop() -> int:
    """A fixed piece of pure-Python work (string formatting, dict reads
    and writes) that shares nothing with the program under test."""
    table: dict = {}
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        key = "k%d" % (index % 256)
        table[key] = table.get(key, 0) + index
        total += len(key)
    return total


class HostSpeed:
    """Samples how fast the host runs Python at this moment.

    The host's cores slow down by up to 2x under other tenants' load,
    for stretches from milliseconds to over a minute, and a program's
    CPU time slows with them.  Sampling :func:`calibration_loop` between
    the program's operations, on the same thread, measures that slowdown
    where and when the program ran; :attr:`scale` converts the program's
    times to what they would be when the loop runs at
    :data:`CALIBRATION_REF_S`.  Samples are timed in thread-CPU time so
    that a wait for the GIL or the scheduler does not read as a slow
    host.
    """

    def __init__(self) -> None:
        #: Thread-CPU seconds of each sample.
        self.samples: List[float] = []
        #: Wall and thread-CPU seconds spent sampling so far, which the
        #: caller takes out of its own timings.
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._lock = threading.Lock()

    def sample(self) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        calibration_loop()
        cpu = time.thread_time() - cpu
        wall = time.perf_counter() - wall
        with self._lock:
            self.samples.append(cpu)
            self.cpu_s += cpu
            self.wall_s += wall

    @property
    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


class SetupClock:
    """Times set-ups: the one a run uses and spare ones built and closed
    between timed passes.  Each time is scaled to the reference host
    speed by samples taken around it (the set-up itself cannot be
    interrupted to take them)."""

    def __init__(self) -> None:
        self.times: List[float] = []

    def build(self, build: Callable[[], T]) -> T:
        gc.collect()
        speed = HostSpeed()
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        start = time.perf_counter()
        built = build()
        wall = time.perf_counter() - start
        for _ in range(SETUP_SPEED_SAMPLES):
            speed.sample()
        self.times.append(wall * speed.scale)
        return built

    def spare(self, build: Callable[[], T], close: Callable[[T], None]) -> None:
        close(self.build(build))

    def spare_due(self, started: float, seconds: float) -> bool:
        """Whether the next spare set-up is due, spacing
        ``SETUP_REPEATS - 1`` of them evenly over ``seconds``."""
        done = len(self.times) - 1
        if done >= SETUP_REPEATS - 1:
            return False
        return time.perf_counter() - started >= (done + 1) * seconds / SETUP_REPEATS

    @property
    def median_s(self) -> float:
        return median(self.times)


class CheckFailures:
    """Collects output-check failures; any entry makes the run incorrect."""

    def __init__(self) -> None:
        self.messages: List[str] = []

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.messages.append(message)

    @property
    def ok(self) -> bool:
        return not self.messages
