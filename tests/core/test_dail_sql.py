"""DAIL-SQL pipeline tests."""

import pytest

from repro.core.dail_sql import DailSQL
from repro.dataset.spider import SpiderDataset
from repro.db.sqlite_backend import Database
from repro.llm.interface import GenerationResult
from repro.llm.simulated import make_llm
from repro.schema.model import Column, DatabaseSchema, Table
from repro.selection.strategies import DailSelection


@pytest.fixture(scope="module")
def pipeline(corpus, oracle):
    llm = make_llm("gpt-4", oracle)
    return DailSQL(llm, corpus.train, k=4)


class TestPipeline:
    def test_generate_sql(self, pipeline, corpus):
        example = corpus.dev.examples[0]
        schema = corpus.dev.schema(example.db_id)
        result = pipeline.generate_sql(schema, example.question)
        assert result.sql.upper().startswith("SELECT")
        assert result.n_examples == 4
        assert result.preliminary_sql

    def test_prompt_uses_dail_organization(self, pipeline, corpus):
        example = corpus.dev.examples[0]
        schema = corpus.dev.schema(example.db_id)
        result = pipeline.generate_sql(schema, example.question)
        assert result.prompt.organization_id == "DAIL_O"
        assert result.prompt.representation_id == "CR_P"
        assert result.prompt.includes_foreign_keys

    def test_deterministic(self, pipeline, corpus):
        example = corpus.dev.examples[1]
        schema = corpus.dev.schema(example.db_id)
        a = pipeline.generate_sql(schema, example.question)
        b = pipeline.generate_sql(schema, example.question)
        assert a.sql == b.sql

    def test_examples_are_cross_domain(self, pipeline, corpus):
        example = corpus.dev.examples[0]
        schema = corpus.dev.schema(example.db_id)
        result = pipeline.generate_sql(schema, example.question)
        for block in result.prompt.examples:
            assert block.schema.db_id != example.db_id

    def test_max_tokens_respected(self, corpus, oracle):
        llm = make_llm("gpt-4", oracle)
        tight = DailSQL(llm, corpus.train, k=6, max_tokens=420)
        example = corpus.dev.examples[0]
        schema = corpus.dev.schema(example.db_id)
        result = tight.generate_sql(schema, example.question)
        assert result.prompt.token_count <= 420
        assert result.n_examples < 6


class TestSelfConsistency:
    def test_voting_runs(self, corpus, oracle):
        llm = make_llm("gpt-4", oracle)
        pipeline = DailSQL(llm, corpus.train, k=3, n_samples=4)
        example = corpus.dev.examples[0]
        schema = corpus.dev.schema(example.db_id)
        database = corpus.pool().get(example.db_id)
        result = pipeline.generate_sql(schema, example.question, database=database)
        assert len(result.samples) == 4
        assert result.sql in result.samples

    def test_without_database_first_sample(self, corpus, oracle):
        llm = make_llm("gpt-4", oracle)
        pipeline = DailSQL(llm, corpus.train, k=3, n_samples=4)
        example = corpus.dev.examples[0]
        schema = corpus.dev.schema(example.db_id)
        result = pipeline.generate_sql(schema, example.question)
        assert len(result.samples) == 1


class ScriptedLLM:
    """Answers each sample tag from a script (a default otherwise)."""

    model_id = "scripted"

    def __init__(self, answers, default):
        self.answers = answers
        self.default = default

    def generate(self, prompt, sample_tag=""):
        text = self.answers.get(sample_tag, self.default)
        return GenerationResult(text, prompt.token_count, 8, self.model_id)


class TestCustomSchema:
    QUESTION = "How many singers from France gave a concert with attendance above 400?"

    def test_target_question_masked_by_its_own_linker(
        self, corpus, oracle, toy_schema
    ):
        """A schema outside the candidate pool is masked with its own
        linker, exactly as a sweep masks its evaluation split."""
        pipeline = DailSQL(make_llm("gpt-4", oracle), corpus.train, k=4)
        result = pipeline.generate_sql(toy_schema, self.QUESTION)
        target = SpiderDataset([], [toy_schema])
        linker = target.linker(toy_schema.db_id)
        assert linker.mask_question(self.QUESTION) != self.QUESTION
        reference = DailSelection(corpus.train)
        reference.set_target_dataset(target)
        expected = reference.select(
            self.QUESTION, toy_schema.db_id, 4,
            predicted_sql=result.preliminary_sql,
        )
        assert [(b.question, b.sql) for b in result.prompt.examples] == [
            (b.question, b.sql) for b in expected
        ]

    def test_fatal_sample_never_executes(self, corpus, toy_schema, toy_rows):
        fatal = "SELECT nickname FROM singer"
        llm = ScriptedLLM(
            {"sc-0": fatal, "sc-3": fatal}, "SELECT count(*) FROM singer"
        )
        pipeline = DailSQL(llm, corpus.train, k=3, n_samples=5)
        executed = []
        with Database.build(toy_schema, toy_rows) as database:
            execute = database.execute

            def spy(sql, *args, **kwargs):
                executed.append(sql)
                return execute(sql, *args, **kwargs)

            database.execute = spy
            result = pipeline.generate_sql(
                toy_schema, self.QUESTION, database=database
            )
        assert result.samples.count(fatal) == 2 and len(result.samples) == 5
        assert result.sql == "SELECT count(*) FROM singer"
        assert result.raw_output == fatal
        assert executed and fatal not in executed


class InterleavingLLM:
    """Delegates to a model; during the first preliminary call it runs
    another ask on the same pipeline — an ask that lands between this
    call's target setup and its selection, as a concurrent one can."""

    def __init__(self, llm):
        self.llm = llm
        self.model_id = llm.model_id
        self.interleave = None

    def fingerprint(self):
        return self.llm.fingerprint()

    def generate(self, prompt, sample_tag=""):
        if sample_tag == "preliminary" and self.interleave is not None:
            interleave, self.interleave = self.interleave, None
            interleave()
        return self.llm.generate(prompt, sample_tag=sample_tag)


class TestTargetIsolation:
    QUESTION = TestCustomSchema.QUESTION

    @staticmethod
    def other_schema(db_id):
        """A different schema under the same ``db_id``."""
        return DatabaseSchema(db_id=db_id, tables=(Table(
            name="gadget",
            columns=(Column("gadget_id", "number", is_integer=True),
                     Column("label", "text")),
            primary_key="gadget_id",
        ),))

    @staticmethod
    def summary(result):
        return (result.sql, result.prompt.text,
                [(b.question, b.sql) for b in result.prompt.examples])

    def test_interleaved_ask_uses_its_own_schema(
        self, corpus, oracle, toy_schema
    ):
        alone = DailSQL(make_llm("gpt-4", oracle), corpus.train, k=4)
        expected = self.summary(alone.generate_sql(toy_schema, self.QUESTION))

        llm = InterleavingLLM(make_llm("gpt-4", oracle))
        pipeline = DailSQL(llm, corpus.train, k=4)
        other = self.other_schema(toy_schema.db_id)
        llm.interleave = lambda: pipeline.generate_sql(other, self.QUESTION)
        result = pipeline.generate_sql(toy_schema, self.QUESTION)
        assert llm.interleave is None  # the other ask did run
        assert self.summary(result) == expected

    def test_target_built_once_per_schema(self, corpus, oracle, toy_schema):
        pipeline = DailSQL(make_llm("gpt-4", oracle), corpus.train, k=2)
        pipeline.generate_sql(toy_schema, self.QUESTION)
        first = pipeline._target(toy_schema)
        pipeline.generate_sql(toy_schema, "How many concerts are there?")
        assert pipeline._target(toy_schema) is first
        assert pipeline._selection._target_linkers == {}


class TestAccuracy:
    def test_beats_zero_shot(self, corpus, oracle):
        """The integrated pipeline must beat its own zero-shot pass."""
        llm = make_llm("gpt-4", oracle)
        pipeline = DailSQL(llm, corpus.train, k=5)
        pool = corpus.pool()
        from repro.db.execution import results_match

        few_correct = 0
        zero_correct = 0
        for example in corpus.dev.examples:
            schema = corpus.dev.schema(example.db_id)
            database = pool.get(example.db_id)
            gold_rows = database.execute(example.query)

            result = pipeline.generate_sql(schema, example.question)
            rows = database.try_execute(result.sql)
            if rows is not None and results_match(gold_rows, rows, example.query):
                few_correct += 1

            zero_sql = pipeline.preliminary_sql(schema, example.question)
            rows = database.try_execute(zero_sql)
            if rows is not None and results_match(gold_rows, rows, example.query):
                zero_correct += 1
        assert few_correct > zero_correct
