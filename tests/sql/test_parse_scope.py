"""The parse scope: one parse per distinct SQL string inside a scope,
nothing memoised outside one, and nothing kept after one closes."""

import threading

import pytest

from repro.api.wire import LintRequest
from repro.errors import SQLSyntaxError
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.obs.metrics import MetricsRegistry
from repro.serve import SqlService
from repro.sql import parser
from repro.sql.canonical import canonical_fingerprint
from repro.sql.parser import parse, parse_scope, scope_memo, try_parse

SQL = "SELECT name FROM singer WHERE age > 30"
BAD = "SELECT name FROM WHERE"


class Tokenized(list):
    """Every string the parser tokenizes, in order; ``memos`` holds the
    parse scope memo open at each call."""

    def __init__(self):
        super().__init__()
        self.memos = []


@pytest.fixture()
def tokenized(monkeypatch):
    seen = Tokenized()
    tokenize = parser.tokenize

    def spy(sql):
        seen.append(sql)
        seen.memos.append(scope_memo())
        return tokenize(sql)

    monkeypatch.setattr(parser, "tokenize", spy)
    return seen


def syntax_error(sql):
    with pytest.raises(SQLSyntaxError) as info:
        parse(sql)
    return info.value


def error_fields(error):
    return (str(error), error.args, error.sql, error.position)


class TestMemo:
    def test_same_object_inside_a_scope(self, tokenized):
        with parse_scope():
            first = parse(SQL)
            assert parse(SQL) is first
            assert try_parse(SQL) is first
        assert tokenized == [SQL]

    def test_no_memo_outside_a_scope(self, tokenized):
        assert scope_memo() is None
        assert parse(SQL) is not parse(SQL)
        assert parse(SQL) == parse(SQL)
        assert tokenized == [SQL] * 4

    def test_failure_raises_a_fresh_equal_error(self, tokenized):
        unscoped = syntax_error(BAD)
        with parse_scope():
            miss = syntax_error(BAD)
            hit = syntax_error(BAD)
            assert try_parse(BAD) is None
        assert hit is not miss
        assert error_fields(miss) == error_fields(unscoped)
        assert error_fields(hit) == error_fields(unscoped)
        assert hit.__traceback__ is not miss.__traceback__
        assert tokenized == [BAD, BAD]

    def test_nothing_survives_the_scope(self, tokenized):
        with parse_scope():
            inside = parse(SQL)
            syntax_error(BAD)
        assert scope_memo() is None
        assert parse(SQL) is not inside
        syntax_error(BAD)
        assert tokenized == [SQL, BAD, SQL, BAD]

    def test_nested_scope_joins_the_outer_one(self, tokenized):
        with parse_scope():
            outer = parse(SQL)
            with parse_scope():
                assert parse(SQL) is outer
            assert parse(SQL) is outer
        assert tokenized == [SQL]

    def test_scope_closes_on_error(self):
        with pytest.raises(RuntimeError):
            with parse_scope():
                parse(SQL)
                raise RuntimeError("boom")
        assert scope_memo() is None

    def test_threads_share_no_entries(self, tokenized):
        both_parsed = threading.Barrier(2, timeout=10)
        results = {}

        def work(name):
            with parse_scope():
                results[name] = parse(SQL)
                both_parsed.wait()
                assert parse(SQL) is results[name]
            results[name + ":after"] = scope_memo()

        threads = [threading.Thread(target=work, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["a"] is not results["b"]
        assert results["a"] == results["b"]
        assert results["a:after"] is None and results["b:after"] is None
        assert tokenized == [SQL, SQL]


class TestCanonicalFingerprint:
    def test_scoped_equals_unscoped_on_the_corpus(self, corpus):
        cases = [(e.query, corpus.dev.schema(e.db_id))
                 for e in corpus.dev.examples]
        cases.append((BAD, None))
        expected = [canonical_fingerprint(sql, schema)
                    for sql, schema in cases]
        assert expected[-1] is None
        with parse_scope():
            scoped = [canonical_fingerprint(sql, schema)
                      for sql, schema in cases]
            again = [canonical_fingerprint(sql, schema)
                     for sql, schema in cases]
        assert scoped == expected
        assert again == expected

    def test_keyed_on_schema(self, toy_schema):
        # Integer columns turn strict bounds inclusive, with a schema only.
        sql = "SELECT count(*) FROM singer WHERE age > 3"
        with parse_scope():
            with_schema = canonical_fingerprint(sql, toy_schema)
            without = canonical_fingerprint(sql)
        assert with_schema == canonical_fingerprint(sql, toy_schema)
        assert without == canonical_fingerprint(sql)
        assert with_schema != without


class TestLifetime:
    """No parse result outlives the example or request that made it."""

    def test_one_scope_per_example(self, corpus, tokenized, monkeypatch):
        # The scopes are observed as they open: with the gold AST seeded,
        # an example whose answer is its gold SQL tokenizes nothing.
        opened = []
        init = parser.ScopeMemo.__init__

        def spy(memo):
            init(memo)
            opened.append(memo)

        monkeypatch.setattr(parser.ScopeMemo, "__init__", spy)
        runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(),
                                 seed=3)
        plan = runner.prepare(RunConfig(model="gpt-4"))
        first_example, second_example = corpus.dev.examples[:2]
        runner.pipeline.run(first_example, plan)
        assert len(opened) == 1
        first = opened[0]
        assert first.parses[first_example.query] is first_example.gold_ast
        assert all(memo is first for memo in tokenized.memos)
        assert len(tokenized) == len(set(tokenized))
        assert scope_memo() is None
        before = len(tokenized)
        runner.pipeline.run(second_example, plan)
        assert len(opened) == 2
        assert opened[1] is not first
        assert opened[1].parses[second_example.query] is (
            second_example.gold_ast
        )
        assert all(memo is opened[1] for memo in tokenized.memos[before:])

    def test_one_scope_per_request(self, corpus, tokenized):
        runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(),
                                 seed=3)
        example = corpus.dev.examples[0]
        memos = []
        with SqlService(runner, metrics=MetricsRegistry()) as service:
            for padding in ("", " "):
                service.lint(LintRequest(
                    db_id=example.db_id, sql=example.query + padding
                ))
                assert scope_memo() is None
                memos.append(tokenized.memos[-1])
        assert None not in memos
        assert memos[0] is not memos[1]


class TestLinking:
    """Schema linkings share the scope: one link per (question, schema)."""

    @pytest.fixture()
    def linked(self, monkeypatch):
        from repro.schema.linker import SchemaLinker

        seen = []
        link = SchemaLinker._link

        def spy(self, question):
            seen.append(question)
            return link(self, question)

        monkeypatch.setattr(SchemaLinker, "_link", spy)
        return seen

    def test_scoped_equals_unscoped(self, corpus, linked):
        from repro.schema.linker import SchemaLinker

        example = corpus.dev.examples[0]
        schema = corpus.dev.schema(example.db_id)
        expected = SchemaLinker(schema).link(example.question)
        with parse_scope():
            first = SchemaLinker(schema).link(example.question)
            assert SchemaLinker(schema).link(example.question) is first
            assert scope_memo().linkings
        assert first == expected
        assert linked == [example.question] * 2
        # Outside any scope nothing is memoised.
        SchemaLinker(schema).link(example.question)
        assert len(linked) == 3

    def test_keyed_on_schema(self, corpus, toy_schema, linked):
        from repro.schema.linker import SchemaLinker

        question = "How many singers are older than 30?"
        with parse_scope():
            ours = SchemaLinker(toy_schema).link(question)
            theirs = SchemaLinker(corpus.dev.schema(
                corpus.dev.examples[0].db_id)).link(question)
        assert linked == [question, question]
        assert ours.tables() == {"singer"}
        assert ours is not theirs

    def test_once_per_example_on_the_dail_config(self, corpus, linked):
        from repro.core.baselines import leaderboard_entries
        from repro.eval.engine import EvalEngine

        entry = next(e for e in leaderboard_entries()
                     if e.config.selection == "DAIL_S")
        runner = BenchmarkRunner(corpus.dev, corpus.train, corpus.pool(),
                                 seed=3)
        runner.prepare(entry.config, n_samples=entry.n_samples)
        del linked[:]
        report = EvalEngine(runner).run(entry.config, limit=6,
                                        n_samples=entry.n_samples)
        assert sorted(linked) == sorted(r.question for r in report.records)
