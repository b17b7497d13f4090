"""Corpus generator tests: domains, population, questions, realism."""

import hashlib
import json
from collections import Counter

import pytest

from repro.dataset.generator.corpus import (
    CorpusConfig,
    REALISTIC_SYNONYMS,
    build_corpus,
    spider_realistic,
)
from repro.dataset.generator.domains import DOMAINS, build_schema, domain_by_id
from repro.dataset.generator.populate import populate
from repro.dataset.generator import corpus as corpus_module
from repro.dataset.generator.questions import generate_examples
from repro.dataset.spider import Example
from repro.db.sqlite_backend import Database
from repro.errors import DatasetError, SchemaError
from repro.experiments.context import FULL_CONFIG
from repro.sql import parser
from repro.sql.unparse import unparse


class TestDomains:
    def test_catalogue_size(self):
        assert len(DOMAINS) >= 20

    def test_groups_nonempty(self):
        groups = Counter(d.group for d in DOMAINS)
        assert groups["dev"] >= 4
        assert groups["train"] >= 10

    def test_unique_ids(self):
        ids = [d.db_id for d in DOMAINS]
        assert len(set(ids)) == len(ids)

    def test_all_schemas_build(self):
        for spec in DOMAINS:
            schema = build_schema(spec)
            assert schema.tables
            # Every domain has at least one FK (joins are exercised).
            assert schema.foreign_keys

    def test_domain_by_id(self):
        assert domain_by_id("pets_1").db_id == "pets_1"
        with pytest.raises(SchemaError):
            domain_by_id("nope")


class TestPopulate:
    def test_row_counts(self):
        spec = domain_by_id("pets_1")
        data = populate(spec, seed=0)
        for tspec in spec.tables:
            assert len(data[tspec.name]) == tspec.rows

    def test_primary_keys_sequential_unique(self):
        spec = domain_by_id("pets_1")
        data = populate(spec, seed=0)
        ids = [row["student_id"] for row in data["student"]]
        assert ids == list(range(1, len(ids) + 1))

    def test_foreign_keys_reference_parents(self):
        spec = domain_by_id("pets_1")
        data = populate(spec, seed=1)
        parent_ids = {row["student_id"] for row in data["student"]}
        for row in data["pet"]:
            assert row["owner_id"] in parent_ids

    def test_unique_text_columns(self):
        spec = domain_by_id("concert_singer")
        data = populate(spec, seed=2)
        names = [row["name"] for row in data["singer"]]
        assert len(set(names)) == len(names)

    def test_deterministic(self):
        spec = domain_by_id("online_store")
        assert populate(spec, seed=5) == populate(spec, seed=5)

    def test_seed_changes_data(self):
        spec = domain_by_id("online_store")
        assert populate(spec, seed=5) != populate(spec, seed=6)

    def test_numeric_ranges_respected(self):
        spec = domain_by_id("concert_singer")
        data = populate(spec, seed=0)
        for row in data["singer"]:
            assert 18 <= row["age"] <= 70


class TestQuestions:
    def test_generates_requested_count(self):
        spec = domain_by_id("employee_hire")
        schema = build_schema(spec)
        data = populate(spec, seed=0)
        examples = generate_examples(schema, data, 20, seed=0)
        assert len(examples) == 20

    def test_all_gold_queries_execute(self):
        spec = domain_by_id("employee_hire")
        schema = build_schema(spec)
        data = populate(spec, seed=0)
        examples = generate_examples(schema, data, 25, seed=1)
        with Database.build(schema, data) as db:
            for example in examples:
                assert db.try_execute(example.sql) is not None, example.sql

    def test_no_duplicates(self):
        spec = domain_by_id("employee_hire")
        schema = build_schema(spec)
        data = populate(spec, seed=0)
        examples = generate_examples(schema, data, 25, seed=1)
        keys = {(e.question, e.sql) for e in examples}
        assert len(keys) == len(examples)

    def test_deterministic(self):
        spec = domain_by_id("sports_league")
        schema = build_schema(spec)
        data = populate(spec, seed=0)
        a = generate_examples(schema, data, 10, seed=4)
        b = generate_examples(schema, data, 10, seed=4)
        assert [(e.question, e.sql) for e in a] == [(e.question, e.sql) for e in b]

    def test_hardness_spread(self):
        spec = domain_by_id("university_enrollment")
        schema = build_schema(spec)
        data = populate(spec, seed=0)
        examples = generate_examples(schema, data, 40, seed=0)
        from repro.sql.hardness import hardness

        buckets = Counter(hardness(e.sql) for e in examples)
        assert len(buckets) >= 3  # not all one difficulty


class TestCorpus:
    def test_splits_cross_domain(self, corpus):
        assert not (set(corpus.train.schemas) & set(corpus.dev.schemas))

    def test_pool_covers_all_dbs(self, corpus):
        pool = corpus.pool()
        for db_id in list(corpus.train.schemas) + list(corpus.dev.schemas):
            assert db_id in pool

    def test_domain_restriction(self):
        config = CorpusConfig(
            seed=0, train_per_db=5, dev_per_db=5,
            domains=["pets_1", "orchestra_hall"],
        )
        corpus = build_corpus(config)
        try:
            assert set(corpus.dev.schemas) == {"pets_1"}
            assert set(corpus.train.schemas) == {"orchestra_hall"}
        finally:
            corpus.close()

    def test_empty_split_raises(self):
        with pytest.raises(DatasetError):
            build_corpus(CorpusConfig(domains=["pets_1"]))  # dev only

    def test_each_database_is_built_once(self, monkeypatch):
        # Gold queries are validated on the pool's own dev databases, so
        # the pool a run asks for afterwards builds nothing more; a train
        # database is closed after validation and only its recipe stays.
        built = []
        original = Database.build.__func__

        def counting(cls, schema, rows, path=None):
            built.append(schema.db_id)
            return original(cls, schema, rows, path)

        monkeypatch.setattr(Database, "build", classmethod(counting))
        with build_corpus(CorpusConfig(seed=0, train_per_db=5,
                                       dev_per_db=5)) as built_corpus:
            pool = built_corpus.pool()
            assert built_corpus.pool() is pool
            dev_ids = sorted(built_corpus.dev.schemas)
            db_ids = sorted(set(built_corpus.train.schemas) | set(dev_ids))
            assert pool.db_ids() == db_ids
            # Only the dev databases are open, on this thread.
            assert pool.connection_count() == len(dev_ids)
            for db_id in dev_ids:
                assert pool.get(db_id).try_execute("SELECT 1") == [(1,)]
            assert sorted(built) == db_ids
            # A train database is rebuilt from its recipe on first use.
            train_id = sorted(built_corpus.train.schemas)[0]
            assert pool.get(train_id).try_execute("SELECT 1") == [(1,)]
            assert built.count(train_id) == 2
        assert len(db_ids) == len(DOMAINS) == 26


#: SHA-256 of every example of the full-size corpus (train then dev, each
#: ``Example.to_json()``, ``json.dumps(..., sort_keys=True)``) per seed.
FULL_CORPUS_DIGESTS = {
    0: "68d750cc4970dffba24d0393fab08db6b62b402905a377dcfcb59595a757a406",
    1: "37f8aa58f56c2e8fb30e5b99b0e0f076b0dc5a266e2d9f639fa76c40c92db9dc",
    2: "ce02bc002304dfbccdb76f539e58064021727f4035e8056e8630fcb83c70909d",
    3: "61327834cc8330c8d80e691afb1d8df8cf1358d2fd41482d296dc78a461eccd8",
    4: "d7856ccd4faaad269a12d6738746137033a01ae3310fd0ca2ed848ab9e195bae",
    5: "0d9381a9ea4489d64c94aaa7fb9179d1b01f997894ed41eba978e26f69727bdf",
}


class TestCorpusFromAst:
    """``build_corpus`` reads each example's hardness off its gold AST and
    never parses; the examples are those that parsing the gold SQL gives."""

    @pytest.mark.parametrize("seed", sorted(FULL_CORPUS_DIGESTS))
    def test_full_corpus(self, seed, monkeypatch):
        generated = []

        def recording(*args, **kwargs):
            examples = generate_examples(*args, **kwargs)
            generated.extend(examples)
            return examples

        monkeypatch.setattr(corpus_module, "generate_examples", recording)
        config = CorpusConfig(seed=seed, train_per_db=FULL_CONFIG.train_per_db,
                              dev_per_db=FULL_CONFIG.dev_per_db)
        with build_corpus(config) as built:
            examples = list(built.train) + list(built.dev)
        assert len(generated) == len(examples) == 744

        # Every generated AST round-trips through its SQL text ...
        for item in generated:
            assert parser.parse(unparse(item.query)) == item.query, item.sql
        # ... so each example equals one whose hardness comes from a parse.
        for example in examples:
            assert example == Example(
                db_id=example.db_id, question=example.question,
                query=example.query, example_id=example.example_id,
            )
        text = json.dumps([e.to_json() for e in examples], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            FULL_CORPUS_DIGESTS[seed]

    def test_build_parses_nothing(self, monkeypatch):
        calls = Counter()
        original = parser._parse

        def counting(sql):
            calls["parse"] += 1
            return original(sql)

        # Every parse, whichever name it is called through, runs _parse.
        monkeypatch.setattr(parser, "_parse", counting)
        with build_corpus(FULL_CONFIG) as built:
            assert len(built.train) + len(built.dev) == 744
        assert calls["parse"] == 0


class TestSpiderRealistic:
    def test_column_words_replaced(self, corpus):
        realistic = spider_realistic(corpus.dev)
        changed = sum(
            1 for a, b in zip(corpus.dev.examples, realistic.examples)
            if a.question != b.question
        )
        assert changed > len(corpus.dev) // 3

    def test_gold_queries_unchanged(self, corpus):
        realistic = spider_realistic(corpus.dev)
        for a, b in zip(corpus.dev.examples, realistic.examples):
            assert a.query == b.query

    def test_synonyms_leave_schema_vocabulary(self, corpus):
        realistic = spider_realistic(corpus.dev)
        for example in realistic.examples[:10]:
            linker = realistic.linker(example.db_id)
            words = set(example.question.lower().split())
            # Replaced words must be gone.
            for original, replacement in REALISTIC_SYNONYMS.items():
                if replacement.split()[0] in words:
                    assert original not in words

    def test_coverage_drops(self, corpus):
        realistic = spider_realistic(corpus.dev)
        def coverage(ds):
            total = 0.0
            for e in ds.examples:
                total += ds.linker(e.db_id).link(e.question).coverage()
            return total / len(ds.examples)
        assert coverage(realistic) < coverage(corpus.dev)
