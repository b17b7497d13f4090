"""The served model call: on the caller's thread, behind the breaker
and the request deadline."""

from __future__ import annotations

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.errors import CircuitOpenError, DeadlineExceededError
from repro.llm.interface import GenerationResult
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.coalesce import GenerateCoalescer
from repro.serve.service import _Deadline, _DeadlineClient


def prompt(text: str) -> SimpleNamespace:
    return SimpleNamespace(text=text, response_prefix="SELECT")


class RecordingLLM:
    """Echoes each prompt's text; records every batch it was handed and
    the thread that handed it."""

    model_id = "recording"

    def __init__(self, fail: Exception = None, before=None):
        self.batches = []
        self.threads = []
        self.fail = fail
        #: called with the batch's texts before answering (may raise)
        self.before = before
        self._lock = threading.Lock()

    def fingerprint(self) -> str:
        return "recording:v1"

    def generate(self, p, sample_tag: str = "") -> GenerationResult:
        return self.generate_batch([p], sample_tag=sample_tag)[0]

    def generate_batch(self, prompts, sample_tag: str = ""):
        texts = [p.text for p in prompts]
        with self._lock:
            self.batches.append(texts)
            self.threads.append(threading.get_ident())
        if self.before is not None:
            self.before(texts)
        if self.fail is not None:
            raise self.fail
        return [
            GenerationResult(
                text=f"out:{p.text}:{sample_tag}", prompt_tokens=1,
                completion_tokens=1, model_id=self.model_id,
            )
            for p in prompts
        ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def run_concurrently(*targets):
    """Run each callable on its own thread; re-raise the first error."""
    errors = []

    def wrap(target):
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    if errors:
        raise errors[0]


class TestGenerateCoalescer:
    def test_single_request_round_trip(self):
        llm = RecordingLLM()
        result = GenerateCoalescer(llm).generate(prompt("a"), sample_tag="t")
        assert result.text == "out:a:t"
        assert llm.batches == [["a"]]

    def test_backend_runs_on_the_callers_thread(self):
        llm = RecordingLLM()
        coalescer = GenerateCoalescer(llm)
        seen = {}

        def call(name):
            seen[name] = threading.get_ident()
            coalescer.generate(prompt(name))

        call("main")
        run_concurrently(lambda: call("worker"))
        assert llm.threads == [seen["main"], seen["worker"]]

    def test_concurrent_cold_generates_reach_the_backend_together(self):
        # Each call waits for the other inside the backend: this only
        # passes when neither call is queued behind the other.
        barrier = threading.Barrier(2, timeout=5)
        llm = RecordingLLM(before=lambda texts: barrier.wait())
        coalescer = GenerateCoalescer(llm)
        results = {}

        def call(name):
            results[name] = coalescer.generate(prompt(name)).text

        run_concurrently(lambda: call("a"), lambda: call("b"))
        assert results == {"a": "out:a:", "b": "out:b:"}
        assert sorted(llm.batches) == [["a"], ["b"]]

    def test_different_sample_tags_never_share_a_batch(self):
        llm = RecordingLLM()
        coalescer = GenerateCoalescer(llm)
        n = 4
        results = [None] * n

        def call(index):
            results[index] = coalescer.generate(
                prompt(f"q{index}"), sample_tag=f"sc-{index % 2}"
            )

        run_concurrently(*(lambda i=i: call(i) for i in range(n)))
        # One prompt per backend call, stamped with its own caller's tag.
        assert [r.text for r in results] == [
            f"out:q{i}:sc-{i % 2}" for i in range(n)
        ]
        assert sorted(llm.batches) == [[f"q{i}"] for i in range(n)]

    def test_backend_failure_reaches_every_waiter(self):
        """The backend's error reaches its caller and trips the breaker;
        the next call then fails fast without reaching the backend."""
        error = RuntimeError("backend down")
        llm = RecordingLLM(fail=error)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        coalescer = GenerateCoalescer(llm, breaker=breaker)
        with pytest.raises(RuntimeError, match="backend down"):
            coalescer.generate(prompt("a"))
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            coalescer.generate(prompt("b"))
        assert llm.batches == [["a"]]

    def test_open_breaker_makes_no_backend_call(self):
        llm = RecordingLLM()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError):
            GenerateCoalescer(llm, breaker=breaker).generate(prompt("a"))
        assert llm.batches == []

    def test_failed_probe_rearms_the_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                                 clock=clock)
        fail = [True]

        def maybe_fail(texts):
            if fail[0]:
                raise RuntimeError("still down")

        llm = RecordingLLM(before=maybe_fail)
        coalescer = GenerateCoalescer(llm, breaker=breaker, clock=clock)
        with pytest.raises(RuntimeError):
            coalescer.generate(prompt("trip"))
        assert breaker.state == OPEN

        clock.now += 10.0
        assert breaker.state == HALF_OPEN
        with pytest.raises(RuntimeError):
            coalescer.generate(prompt("probe"))
        # The failed probe reported back: open again, cooldown re-armed.
        assert breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            coalescer.generate(prompt("early"))

        clock.now += 10.0
        fail[0] = False
        assert coalescer.generate(prompt("next")).text == "out:next:"
        assert breaker.state == CLOSED
        assert llm.batches == [["trip"], ["probe"], ["next"]]

    def test_half_open_admits_one_probe_under_contention(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0,
                                 clock=clock)
        breaker.record_failure()
        clock.now += 10.0
        n = 8
        refused = []
        lock = threading.Lock()
        # The probe holds the backend until every other caller was
        # refused, so all of them race while it is in flight.
        released = threading.Event()
        llm = RecordingLLM(before=lambda texts: released.wait(timeout=5))
        coalescer = GenerateCoalescer(llm, breaker=breaker, clock=clock)

        def call(index):
            try:
                coalescer.generate(prompt(f"q{index}"))
            except CircuitOpenError:
                with lock:
                    refused.append(index)
                    if len(refused) == n - 1:
                        released.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_concurrently(*(lambda i=i: call(i) for i in range(n)))
        finally:
            sys.setswitchinterval(interval)
        assert released.is_set()
        assert len(llm.batches) == 1 and len(refused) == n - 1
        assert breaker.state == CLOSED

    @pytest.mark.parametrize("timeout_s", [0.0, -0.5])
    def test_spent_budget_makes_no_backend_call(self, timeout_s):
        llm = RecordingLLM()
        with pytest.raises(DeadlineExceededError):
            GenerateCoalescer(llm).generate(prompt("a"), timeout_s=timeout_s)
        assert llm.batches == []

    def test_deadline_expires_while_waiting(self):
        """A call that outlives its budget raises once it returns."""
        clock = FakeClock()

        def stall(texts):
            clock.now += 0.2

        llm = RecordingLLM(before=stall)
        breaker = CircuitBreaker(failure_threshold=1)
        coalescer = GenerateCoalescer(llm, breaker=breaker, clock=clock)
        with pytest.raises(DeadlineExceededError):
            coalescer.generate(prompt("a"), timeout_s=0.1)
        assert llm.batches == [["a"]]
        # The backend answered: a slow call is not a backend failure.
        assert breaker.state == CLOSED
        assert coalescer.generate(prompt("b"), timeout_s=0.3).text == "out:b:"


class TestDeadlineClient:
    def test_delegates_identity_to_inner_client(self):
        client = _DeadlineClient(GenerateCoalescer(RecordingLLM()),
                                 _Deadline(FakeClock(), 1.0))
        assert client.model_id == "recording"
        # cache keys must be identical to the backing client's
        assert client.fingerprint() == "recording:v1"
        assert client.generate(prompt("a"), sample_tag="s").text == "out:a:s"
