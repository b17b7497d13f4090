"""Each per-example SQL fact is derived once.

An example's gold SQL is never tokenized (the corpus keeps its AST);
inside one example each SQL string is alias-resolved once and each
(SQL, schema) pair canonicalized once, whichever of dedup, exact match
and equivalence asks first; and a vote's prompt text is encoded into
cache keys once per search, not once per sample.
"""

import pytest

from repro.cache import keys
from repro.cache.store import ArtifactCache
from repro.core.baselines import leaderboard_entries
from repro.dataset.spider import SpiderDataset
from repro.eval import pipeline as pipeline_module
from repro.eval.harness import BenchmarkRunner, RunConfig
from repro.sql import canonical, parser
from repro.sql.parser import scope_memo, try_parse

#: The batch-vote configuration: zero-shot, five samples, three
#: feedback rounds.
VOTE = (RunConfig(model="gpt-3.5-turbo", representation="CR_P"), 5, 3)


def dail():
    entry = next(e for e in leaderboard_entries()
                 if e.name == "DAIL-SQL (GPT-4)")
    return entry.config, entry.n_samples, 0


CONFIGS = {"vote": lambda: VOTE, "dail": dail}


def prepared(corpus, name):
    config, n_samples, feedback_rounds = CONFIGS[name]()
    runner = BenchmarkRunner(
        corpus.dev, corpus.train, corpus.pool(), seed=3,
        cache=ArtifactCache(), feedback_rounds=feedback_rounds,
    )
    return runner, runner.prepare(config, n_samples=n_samples)


def spy(monkeypatch, module, name, record):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_gold_sql_reaches_the_tokenizer(corpus, monkeypatch, name):
    runner, plan = prepared(corpus, name)
    tokenized = []
    spy(monkeypatch, parser, "tokenize", tokenized.append)
    for example in corpus.dev.examples:
        del tokenized[:]
        runner.pipeline.run(example, plan)
        assert example.query not in tokenized, example.example_id


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_reloaded_split_keeps_its_gold_asts(corpus, tmp_path, monkeypatch,
                                              name):
    """A dev split saved to disk and loaded back keeps every gold AST,
    so a run over it tokenizes no gold SQL either."""
    corpus.dev.save(tmp_path)
    dev = SpiderDataset.load(tmp_path, corpus.dev.name)
    assert len(dev) == 48
    assert [e.gold_ast for e in dev] == [e.gold_ast for e in corpus.dev]
    config, n_samples, feedback_rounds = CONFIGS[name]()
    runner = BenchmarkRunner(
        dev, corpus.train, corpus.pool(), seed=3,
        cache=ArtifactCache(), feedback_rounds=feedback_rounds,
    )
    plan = runner.prepare(config, n_samples=n_samples)
    tokenized = []
    spy(monkeypatch, parser, "tokenize", tokenized.append)
    for example in dev:
        del tokenized[:]
        runner.pipeline.run(example, plan)
        assert example.query not in tokenized, example.example_id


class Facts:
    """Per example: the SQL strings the scoring steps were asked about,
    the alias-resolved ASTs made, and how many of them were
    canonicalized (a whole query's canonical form starts from one)."""

    def __init__(self):
        self.strings = set()
        self.canonicalizable = set()
        self.resolved = []
        self.canonicalizations = 0


@pytest.fixture()
def facts(monkeypatch):
    current = Facts()

    def fingerprinted(sql, schema=None):
        current.strings.add(sql)
        current.canonicalizable.add((sql, id(schema)))

    def matched(gold_sql, pred_sql):
        current.strings.update((gold_sql, pred_sql))

    def compared(a, b, schema=None):
        current.strings.update((a, b))
        if a.strip() != b.strip():
            current.canonicalizable.update(((a, id(schema)), (b, id(schema))))

    spy(monkeypatch, pipeline_module, "canonical_fingerprint", fingerprinted)
    spy(monkeypatch, pipeline_module, "exact_match", matched)
    spy(monkeypatch, pipeline_module, "equivalent", compared)

    resolve_aliases = canonical.resolve_aliases

    def resolved(query):
        result = resolve_aliases(query)
        current.resolved.append(result)
        return result

    monkeypatch.setattr(canonical, "resolve_aliases", resolved)

    def canonicalized(query, schema, drop_aliases):
        # Subqueries and lint conditions come through here too; a whole
        # query's canonical form starts from its resolved AST.
        if any(query is whole for whole in current.resolved):
            current.canonicalizations += 1

    spy(monkeypatch, canonical, "_canon_query", canonicalized)
    return current


def test_each_string_resolved_and_canonicalized_once(corpus, facts):
    runner, plan = prepared(corpus, "vote")
    deduplicated = 0
    for example in corpus.dev.examples:
        facts.__init__()
        runner.pipeline.run(example, plan)
        parsed = {sql for sql in facts.strings if try_parse(sql) is not None}
        assert len(facts.resolved) == len(parsed), example.example_id
        wanted = {key for key in facts.canonicalizable
                  if try_parse(key[0]) is not None}
        assert facts.canonicalizations == len(wanted), example.example_id
        deduplicated += len(wanted)
    assert deduplicated  # dedup and equivalence did canonicalize


def test_vote_prompt_text_is_encoded_once_per_search(corpus, monkeypatch):
    runner, plan = prepared(corpus, "vote")
    encoded = []
    spy(monkeypatch, keys, "_encode",
        lambda value, out: encoded.append(value) if isinstance(value, str)
        else None)
    for example in corpus.dev.examples[:6]:
        _, prompt = runner.pipeline.prompt(plan, example.question,
                                           example.db_id)
        del encoded[:]
        runner.pipeline.run(example, plan)
        assert scope_memo() is None
        assert encoded.count(prompt.text) == 1, example.example_id
        # Each feedback round's prompt is a search of its own text.
        long_texts = [text for text in encoded if len(text) > 200]
        assert len(long_texts) == len(set(long_texts))
