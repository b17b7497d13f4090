"""Simulated LLM tests: determinism and the direction of every feature.

These are the substrate's contract tests: each prompt feature must move
success probability in the direction the paper's findings rely on.
"""

import sys
import threading

import pytest

from repro.eval.candidates import search
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.llm.extract import extract_sql
from repro.llm.simulated import make_llm
from repro.prompt.builder import PromptBuilder
from repro.prompt.organization import ExampleBlock, get_organization
from repro.prompt.representation import RepresentationOptions, get_representation
from repro.schema.linker import SchemaLinker
from repro.schema.model import DatabaseSchema


@pytest.fixture(scope="module")
def dev(corpus):
    return corpus.dev


@pytest.fixture(scope="module")
def llm(oracle):
    return make_llm("gpt-4", oracle)


def build_prompt(dataset, example, rep_id="CR_P", org_id="FI_O",
                 examples=(), **options):
    rep = get_representation(rep_id, RepresentationOptions(**options))
    builder = PromptBuilder(rep, get_organization(org_id))
    schema = dataset.schema(example.db_id)
    return builder.build(schema, example.question, examples)


def mean_probability(llm, dataset, **kwargs):
    total = 0.0
    for example in dataset.examples:
        prompt = build_prompt(dataset, example, **kwargs)
        total += llm.success_probability(prompt)
    return total / len(dataset.examples)


class TestDeterminism:
    def test_same_prompt_same_output(self, dev, llm):
        example = dev.examples[0]
        prompt = build_prompt(dev, example)
        assert llm.generate(prompt).text == llm.generate(prompt).text

    def test_sample_tags_differ_sometimes(self, dev, llm):
        outputs = set()
        for example in dev.examples[:20]:
            prompt = build_prompt(dev, example)
            for tag in ("", "sc-1"):
                outputs.add((example.example_id, tag, llm.generate(prompt, tag).text))
        # Sampling is correlated but not identical across the board.
        assert len(outputs) >= 20

    def test_unknown_question_fallback(self, dev, llm):
        example = dev.examples[0]
        prompt = build_prompt(dev, example)
        prompt.question = "A question the oracle has never seen?"
        result = llm.generate(prompt)
        assert result.text.startswith("SELECT")


class TestFeatureDirections:
    def test_model_strength_ordering(self, dev, oracle):
        strong = mean_probability(make_llm("gpt-4", oracle), dev)
        medium = mean_probability(make_llm("text-davinci-003", oracle), dev)
        weak = mean_probability(make_llm("llama-7b", oracle), dev)
        assert strong > medium > weak

    def test_hardness_ordering(self, dev, llm):
        by_level = {}
        for example in dev.examples:
            prompt = build_prompt(dev, example)
            by_level.setdefault(example.hardness, []).append(
                llm.success_probability(prompt)
            )
        means = {k: sum(v) / len(v) for k, v in by_level.items() if v}
        if "easy" in means and "extra" in means:
            assert means["easy"] > means["extra"]

    def test_foreign_keys_help_on_average(self, dev, llm):
        with_fk = mean_probability(llm, dev, foreign_keys=True)
        without = mean_probability(llm, dev, foreign_keys=False)
        assert with_fk > without

    def test_rule_helps_chatty_model(self, dev, oracle):
        chatty = make_llm("gpt-3.5-turbo", oracle)
        with_rule = mean_probability(chatty, dev, rep_id="TR_P",
                                     rule_implication=True)
        without = mean_probability(chatty, dev, rep_id="TR_P")
        assert with_rule > without

    def test_relevant_examples_help(self, dev, llm, corpus):
        example = dev.examples[0]
        zero = llm.success_probability(build_prompt(dev, example))
        relevant = ExampleBlock(
            question=example.question, sql=example.query,
            schema=dev.schema(example.db_id),
        )
        few = llm.success_probability(
            build_prompt(dev, example, examples=[relevant] * 3)
        )
        assert few > zero

    def test_organization_factor_ordering(self, dev, llm, corpus):
        example = dev.examples[0]
        block = ExampleBlock(
            question=example.question, sql=example.query,
            schema=dev.schema(example.db_id),
        )
        probabilities = {}
        for org_id in ("FI_O", "DAIL_O", "SQL_O"):
            prompt = build_prompt(dev, example, org_id=org_id,
                                  examples=[block] * 3)
            probabilities[org_id] = llm.success_probability(prompt)
        # For a strong model DAIL_O ≈ FI_O (that's the paper's point);
        # SQL_O is clearly weaker than both.
        assert probabilities["FI_O"] == pytest.approx(
            probabilities["DAIL_O"], abs=0.02
        )
        assert min(probabilities["FI_O"], probabilities["DAIL_O"]) > \
            probabilities["SQL_O"]

    def test_context_overflow_penalised(self, dev, oracle, corpus):
        small = make_llm("llama-7b", oracle)  # 2048-token context
        example = dev.examples[0]
        block = ExampleBlock(
            question=example.question, sql=example.query,
            schema=dev.schema(example.db_id),
        )
        short = small.success_probability(build_prompt(dev, example))
        # 40 FI_O examples blow the context.
        long_prompt = build_prompt(dev, example, examples=[block] * 40)
        assert long_prompt.token_count > 2048
        long = small.success_probability(long_prompt)
        assert long < short

    def test_probability_bounded(self, dev, llm):
        for example in dev.examples[:20]:
            p = llm.success_probability(build_prompt(dev, example))
            assert 0.0 < p < 1.0


class TestOutputs:
    def test_success_outputs_execute(self, dev, llm, corpus):
        pool = corpus.pool()
        executable = 0
        for example in dev.examples:
            prompt = build_prompt(dev, example)
            sql = extract_sql(llm.generate(prompt).text, prompt.response_prefix)
            if pool.get(example.db_id).try_execute(sql) is not None:
                executable += 1
        # The vast majority of GPT-4 outputs are at least executable.
        assert executable >= int(0.8 * len(dev.examples))

    def test_completion_tokens_positive(self, dev, llm):
        prompt = build_prompt(dev, dev.examples[0])
        result = llm.generate(prompt)
        assert result.completion_tokens > 0
        assert result.prompt_tokens == prompt.token_count

    def test_model_id_in_result(self, dev, llm):
        prompt = build_prompt(dev, dev.examples[0])
        assert llm.generate(prompt).model_id == "gpt-4"


class TestBatchAndLatency:
    def test_generate_batch_matches_sequential(self, dev, llm):
        prompts = [build_prompt(dev, example) for example in dev.examples[:5]]
        batch = llm.generate_batch(prompts, sample_tag="sc-1")
        single = [llm.generate(p, sample_tag="sc-1") for p in prompts]
        assert [r.text for r in batch] == [r.text for r in single]

    def test_generate_batch_empty(self, llm):
        assert llm.generate_batch([]) == []

    def test_latency_knob_sleeps(self, dev, oracle):
        import time

        slow = make_llm("gpt-4", oracle, latency_s=0.02)
        prompt = build_prompt(dev, dev.examples[0])
        start = time.perf_counter()
        slow.generate(prompt)
        assert time.perf_counter() - start >= 0.02

    def test_latency_does_not_change_output(self, dev, oracle, llm):
        slow = make_llm("gpt-4", oracle, latency_s=0.01)
        prompt = build_prompt(dev, dev.examples[0])
        assert slow.generate(prompt).text == llm.generate(prompt).text


def one_table_schema(schema):
    """A pruned copy of ``schema`` under the same ``db_id``."""
    return DatabaseSchema(schema.db_id, tables=schema.tables[:1])


class TestLinkerPerSchema:
    def test_same_db_id_schemas_link_separately(self, dev, oracle):
        """A model that first sees a pruned schema under a ``db_id``
        scores full-schema prompts exactly as a fresh model does."""
        rep = get_representation("CR_P", RepresentationOptions())
        builder = PromptBuilder(rep, get_organization("FI_O"))
        llm = make_llm("gpt-4", oracle)
        differing = []
        for example in dev.examples:
            schema = dev.schema(example.db_id)
            llm.success_probability(
                builder.build(one_table_schema(schema), example.question)
            )
            prompt = builder.build(schema, example.question)
            fresh = make_llm("gpt-4", oracle).success_probability(prompt)
            if llm.success_probability(prompt) != fresh:
                differing.append(example.example_id)
        assert differing == []


def counting_link(monkeypatch):
    """Patch :meth:`SchemaLinker.link` to record each linked question."""
    calls = []
    original = SchemaLinker.link

    def link(self, question):
        calls.append(question)
        return original(self, question)

    monkeypatch.setattr(SchemaLinker, "link", link)
    return calls


class TestOutcomeMemo:
    def test_vote_links_question_once(self, corpus, monkeypatch):
        runner = BenchmarkRunner(
            corpus.dev, corpus.train, corpus.pool(), seed=3
        )
        plan = runner.prepare(
            RunConfig(model="gpt-3.5-turbo", representation="CR_P"),
            n_samples=5,
        )
        example = corpus.dev.examples[0]
        prompt = plan.builder.build(
            corpus.dev.schema(example.db_id), example.question
        )
        scored = []
        original = plan.llm.success_probability

        def recording(p, gold=None):
            scored.append(original(p, gold))
            return scored[-1]

        lookups = []
        lookup = plan.llm.oracle.lookup

        def counting_lookup(db_id, question):
            lookups.append(question)
            return lookup(db_id, question)

        monkeypatch.setattr(plan.llm, "success_probability", recording)
        monkeypatch.setattr(plan.llm.oracle, "lookup", counting_lookup)
        links = counting_link(monkeypatch)
        search(runner.pipeline, plan.llm, prompt, example.db_id,
               n_samples=5, execute=False)
        assert len(scored) == 5
        # One oracle lookup per model call: generate passes the gold
        # example on to success_probability.
        assert lookups == [example.question] * 5
        assert links == [example.question]
        monkeypatch.undo()
        fresh = make_llm("gpt-3.5-turbo", plan.llm.oracle)
        assert scored == [fresh.success_probability(prompt)] * 5

    def test_interleaved_prompts_and_models(self, dev, oracle):
        prompts = [build_prompt(dev, example) for example in dev.examples[:6]]
        models = [make_llm("gpt-4", oracle), make_llm("llama-7b", oracle)]
        expected = {
            (m, i): make_llm(models[m].model_id, oracle).success_probability(p)
            for m in range(len(models)) for i, p in enumerate(prompts)
        }
        assert len(set(expected.values())) > 1
        for _ in range(3):
            for i, prompt in enumerate(prompts):
                for m, llm in enumerate(models):
                    assert llm.success_probability(prompt) == expected[(m, i)]

    def test_threads_keep_their_own_entry(self, dev, oracle):
        llm = make_llm("gpt-4", oracle)
        prompts = [build_prompt(dev, example) for example in dev.examples[:4]]
        expected = [
            make_llm("gpt-4", oracle).success_probability(p) for p in prompts
        ]
        assert len(set(expected)) > 1
        mismatches = []
        start = threading.Barrier(len(prompts))

        def score(index):
            start.wait(timeout=10)
            for _ in range(200):
                if llm.success_probability(prompts[index]) != expected[index]:
                    mismatches.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=score, args=(i,))
                       for i in range(len(prompts))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
