"""The simulated model's outputs, pinned.

A sha256 digest over the success probability (its ``repr``), response
text and completion tokens of a grid of prompts: FI_O, SQL_O and
DAIL_O organizations with 0, 1, 5 and 9 demonstrations, execution-
feedback prompts, a fine-tuned model and self-consistency sample tags.
Work that changes how the simulator derives its features (relevance,
linking coverage, question facts, token counts) must leave every one of
these values alone; a change that means to move an output re-derives
the pin and says why.
"""

import hashlib
import sys
import threading

import pytest

from repro.llm.finetune import finetune
from repro.llm.oracle import GoldOracle
from repro.llm.simulated import SimulatedLLM, make_llm
from repro.prompt.builder import PromptBuilder
from repro.prompt.organization import get_organization
from repro.prompt.representation import RepresentationOptions, get_representation
from repro.repair.feedback import feedback_prompt
from repro.selection.strategies import MaskedQuestionSimilaritySelection

PINNED = "9ff19693ded7263ef699da4b7159e2ce9516dc1a12655baa105d22af03b243e1"

ORGANIZATIONS = ("FI_O", "SQL_O", "DAIL_O")
KS = (0, 1, 5, 9)
TAGS = ("", "sc-0", "sc-3", "preliminary")


def _models(corpus, oracle):
    state, _ = finetune("llama-7b", corpus.train, "TR_P")
    return [
        make_llm("gpt-4", oracle),
        make_llm("gpt-3.5-turbo", oracle),
        SimulatedLLM(make_llm("llama-7b", oracle).profile, oracle,
                     sft_state=state),
    ]


def _lines(corpus, oracle):
    selection = MaskedQuestionSimilaritySelection(corpus.train)
    selection.set_target_dataset(corpus.dev)
    models = _models(corpus, oracle)
    options = (
        ("CR_P", RepresentationOptions(foreign_keys=True)),
        ("OD_P", RepresentationOptions(rule_implication=True)),
    )
    for position, example in enumerate(corpus.dev.examples[::2]):
        schema = corpus.dev.schema(example.db_id)
        rep_id, rep_options = options[position % len(options)]
        representation = get_representation(rep_id, rep_options)
        for org_id in ORGANIZATIONS:
            builder = PromptBuilder(representation, get_organization(org_id))
            for k in KS:
                blocks = selection.select(example.question, example.db_id, k)
                prompt = builder.build(schema, example.question, blocks)
                prompts = [("", prompt)]
                if k == 1:
                    prompts.append(("feedback", feedback_prompt(
                        prompt, "SELECT nope FROM nowhere",
                        "exec:no_such_table",
                    )))
                for model in models:
                    for kind, each in prompts:
                        p = model.success_probability(each)
                        for tag in TAGS:
                            result = model.generate(each, sample_tag=tag)
                            yield "|".join((
                                model.model_id, example.example_id, rep_id,
                                org_id, str(k), kind, tag, repr(p),
                                result.text, str(result.completion_tokens),
                            ))


def test_outputs_are_pinned(corpus, oracle):
    lines = list(_lines(corpus, oracle))
    # Per example: 3 organizations x (4 k values + 1 feedback prompt) x
    # 3 models x 4 tags.
    assert len(lines) == 24 * 3 * 5 * 3 * 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED, digest


@pytest.mark.parametrize("tag", TAGS)
def test_repeat_calls_agree(corpus, oracle, tag):
    """Memoised facts give the same output on a second call, also after
    other prompts ran in between."""
    model = make_llm("gpt-4", oracle)
    builder = PromptBuilder(get_representation("CR_P"), get_organization("DAIL_O"))
    selection = MaskedQuestionSimilaritySelection(corpus.train)
    selection.set_target_dataset(corpus.dev)
    prompts = []
    for example in corpus.dev.examples[:6]:
        blocks = selection.select(example.question, example.db_id, 5)
        prompts.append(builder.build(
            corpus.dev.schema(example.db_id), example.question, blocks
        ))
    first = [model.generate(p, sample_tag=tag) for p in prompts]
    again = [model.generate(p, sample_tag=tag) for p in reversed(prompts)]
    assert first == list(reversed(again))


def test_shared_model_across_threads(corpus, oracle):
    """One model and its oracle serve several threads at once: the
    per-corpus memos (linkers, demonstration words) are shared and the
    per-question memo is per thread, and every output equals a serial
    run's."""
    model = make_llm("gpt-3.5-turbo", oracle)
    builder = PromptBuilder(get_representation("CR_P"), get_organization("DAIL_O"))
    selection = MaskedQuestionSimilaritySelection(corpus.train)
    selection.set_target_dataset(corpus.dev)
    prompts = [
        builder.build(corpus.dev.schema(e.db_id), e.question,
                      selection.select(e.question, e.db_id, 5))
        for e in corpus.dev.examples[:12]
    ]
    serial = [
        make_llm("gpt-3.5-turbo", GoldOracle(corpus.dev, corpus.train))
        .generate(p, sample_tag="sc-1") for p in prompts
    ]
    results = [None] * 6
    start = threading.Barrier(len(results))

    def worker(slot):
        start.wait(timeout=10)
        order = prompts[slot:] + prompts[:slot]
        outputs = [model.generate(p, sample_tag="sc-1") for p in order]
        results[slot] = outputs[len(prompts) - slot:] + outputs[:len(prompts) - slot]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * len(results)
