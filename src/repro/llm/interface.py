"""LLM client interface and generation result types.

Every model in the benchmark — simulated OpenAI models, simulated
open-source models, fine-tuned variants — implements :class:`LLMClient`.
Swapping in a real API client requires only this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Sequence, runtime_checkable

from ..prompt.builder import Prompt


@dataclass(frozen=True)
class GenerationResult:
    """One model response.

    Attributes:
        text: raw model output (may include prose, code fences, ...).
        prompt_tokens: tokens consumed by the prompt.
        completion_tokens: tokens in the response.
        model_id: which model produced it.
    """

    text: str
    prompt_tokens: int
    completion_tokens: int
    model_id: str

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@runtime_checkable
class LLMClient(Protocol):
    """Anything that can answer a prompt."""

    model_id: str

    def generate(self, prompt: Prompt, sample_tag: str = "") -> GenerationResult:
        """Answer a prompt.  ``sample_tag`` distinguishes repeated samples
        of the same prompt (self-consistency)."""
        ...

    def generate_batch(
        self, prompts: Sequence[Prompt], sample_tag: str = ""
    ) -> List[GenerationResult]:
        """Answer several prompts, preserving input order.

        The reference implementations loop over :meth:`generate`; real
        backends can override with one batched request without
        touching any caller.
        """
        ...


def sequential_batch(
    client: "LLMClient", prompts: Sequence[Prompt], sample_tag: str = ""
) -> List[GenerationResult]:
    """Default ``generate_batch``: one :meth:`LLMClient.generate` per
    prompt, in order.  Shared by the simulated and API clients."""
    return [client.generate(prompt, sample_tag=sample_tag) for prompt in prompts]


def client_fingerprint(client: "LLMClient") -> str:
    """Stable identity of a client for artifact-cache keys.

    Clients that define ``fingerprint()`` (the simulated and API
    clients both do) control their own cache identity; anything else
    falls back to its ``model_id``, which is correct whenever one model
    id maps to one behaviour — the convention of this library.
    """
    fingerprint = getattr(client, "fingerprint", None)
    if callable(fingerprint):
        return fingerprint()
    return f"model:{client.model_id}"
