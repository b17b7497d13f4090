"""The guard around every served model call.

:class:`GenerateCoalescer` calls the model on the caller's own thread,
one ``generate_batch([prompt])`` per generate, with the request's
deadline and the shared
:class:`~repro.resilience.breaker.CircuitBreaker` around that call.
Concurrent requests therefore reach the backend concurrently; there is
no dispatcher thread, queue or batching window to wait in, and the call
runs inside the request's own ``generate`` stage span and context.

The order of checks:

1. an exhausted budget raises :class:`~repro.errors.DeadlineExceededError`
   before the backend is called;
2. an open circuit raises :class:`~repro.errors.CircuitOpenError`
   before the backend is called;
3. one backend call, whose outcome the breaker records (so a half-open
   probe always reports back);
4. a call that overran its budget raises ``DeadlineExceededError``
   after it returns, so its result is never cached.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..errors import CircuitOpenError, DeadlineExceededError
from ..llm.interface import GenerationResult, LLMClient
from ..resilience.breaker import CircuitBreaker


class GenerateCoalescer:
    """Breaker- and deadline-guarded model calls on the caller's thread.

    Args:
        llm: the backing client.
        breaker: circuit breaker consulted before every call (``None``
            disables the guard).
        clock: monotonic time source the overrun check reads.
    """

    def __init__(
        self,
        llm: LLMClient,
        breaker: Optional[CircuitBreaker] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.llm = llm
        self.breaker = breaker
        self.clock = clock

    def generate(
        self, prompt, sample_tag: str = "", timeout_s: Optional[float] = None
    ) -> GenerationResult:
        """One model call for ``prompt``.

        Raises:
            DeadlineExceededError: ``timeout_s`` was already spent, or
                the call took longer than it.
            CircuitOpenError: the breaker refused the call.
        """
        if timeout_s is not None and timeout_s <= 0:
            raise DeadlineExceededError(
                "deadline exceeded before generation "
                f"(over budget by {-timeout_s:.3f}s)"
            )
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                "llm circuit is open: backend failed repeatedly just now"
            )
        start = self.clock()
        try:
            [result] = self.llm.generate_batch([prompt], sample_tag=sample_tag)
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        if timeout_s is not None:
            elapsed = self.clock() - start
            if elapsed > timeout_s:
                raise DeadlineExceededError(
                    f"generation took {elapsed:.3f}s, over its "
                    f"{timeout_s:.3f}s budget"
                )
        return result
