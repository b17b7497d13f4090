"""Prompt assembly with a token budget.

The builder combines an examples section (per the chosen organization) with
the target question block (per the chosen representation), counts tokens,
and drops least-relevant examples until the prompt fits ``max_tokens`` —
exactly how DAIL-SQL packs as many examples as the context allows.

Convention: the example list is in **prompt order** — least similar first,
most similar last (adjacent to the target question), matching the paper's
layout.  Budget truncation therefore drops from the *front*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import PromptError
from ..schema.model import DatabaseSchema
from ..tokenizer.counter import TokenCounter
from .organization import ExampleBlock, Organization
from .representation import Representation, RepresentationOptions


@dataclass
class Prompt:
    """A fully assembled prompt plus the structured context it encodes.

    ``text`` is the exact string a real API call would send (and what token
    accounting uses).  The structured fields mirror the same content for
    downstream consumers (the simulated LLM measures prompt features from
    them; experiments log them).
    """

    text: str
    representation_id: str
    organization_id: str
    options: RepresentationOptions
    db_id: str
    question: str
    schema: DatabaseSchema
    examples: List[ExampleBlock]
    requested_examples: int
    token_count: int
    response_prefix: str
    #: Resolved ablation state (defaults applied): does the prompt carry
    #: foreign-key information / the "no explanation" rule?
    includes_foreign_keys: bool = False
    includes_rule: bool = False

    @property
    def n_examples(self) -> int:
        return len(self.examples)


#: Process-wide token-count memo.  The counter is a bounded thread-safe
#: LRU, so sharing it across every builder (and every worker thread) is
#: safe and lets grid configs reuse each other's schema/example counts.
_SHARED_COUNTER = TokenCounter()


class PromptBuilder:
    """Build prompts for one (representation, organization) combination."""

    def __init__(
        self,
        representation: Representation,
        organization: Organization,
        max_tokens: Optional[int] = None,
        counter: Optional[TokenCounter] = None,
    ):
        self.representation = representation
        self.organization = organization
        self.max_tokens = max_tokens
        self.counter = counter or _SHARED_COUNTER

    def build(
        self,
        schema: DatabaseSchema,
        question: str,
        examples: Sequence[ExampleBlock] = (),
    ) -> Prompt:
        """Assemble a prompt; drops examples front-first to fit the budget.

        Raises:
            PromptError: if even the zero-shot prompt exceeds ``max_tokens``.
        """
        target_block = self.representation.render_question(schema, question)
        kept = list(examples)
        while True:
            example_section = self.organization.render(kept, self.representation)
            text = (
                f"{example_section}\n\n{target_block}" if example_section
                else target_block
            )
            tokens = self.counter.count(text)
            if self.max_tokens is None or tokens <= self.max_tokens:
                break
            if not kept:
                raise PromptError(
                    f"zero-shot prompt needs {tokens} tokens; budget is "
                    f"{self.max_tokens}"
                )
            kept.pop(0)

        return Prompt(
            text=text,
            representation_id=self.representation.id,
            organization_id=self.organization.id,
            options=self.representation.options,
            db_id=schema.db_id,
            question=question,
            schema=schema,
            examples=kept,
            requested_examples=len(examples),
            token_count=tokens,
            response_prefix=self.representation.response_prefix,
            includes_foreign_keys=self.representation.include_foreign_keys,
            includes_rule=(
                self.representation.id == "OD_P"
                or self.representation.options.rule_implication
            ),
        )
