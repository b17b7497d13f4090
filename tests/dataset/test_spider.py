"""SpiderDataset model and I/O tests."""

import dataclasses
import json

import pytest

from repro.dataset.generator.corpus import build_corpus, spider_realistic
from repro.dataset.spider import Example, SpiderDataset, validate_dataset
from repro.errors import DatasetError
from repro.experiments.context import FULL_CONFIG
from repro.sql.parser import parse


class TestExample:
    def test_hardness_computed(self):
        example = Example(db_id="d", question="q?", query="SELECT a FROM t")
        assert example.hardness == "easy"

    def test_unparseable_query_is_extra(self):
        example = Example(db_id="d", question="q?", query="garbage ¤")
        assert example.hardness == "extra"

    def test_json_roundtrip(self):
        example = Example(db_id="d", question="q?", query="SELECT a FROM t",
                          example_id="e1")
        back = Example.from_json(example.to_json())
        assert back == example

    def test_from_json_missing_key(self):
        with pytest.raises(DatasetError):
            Example.from_json({"db_id": "d"})


class TestDataset:
    def test_unknown_db_rejected(self, toy_schema):
        with pytest.raises(DatasetError):
            SpiderDataset(
                [Example(db_id="other", question="q", query="SELECT 1")],
                [toy_schema],
            )

    def test_example_ids_assigned(self, toy_schema):
        dataset = SpiderDataset(
            [Example(db_id="toy_concerts", question="q", query="SELECT 1")],
            [toy_schema], name="unit",
        )
        assert dataset[0].example_id == "unit-0"

    def test_schema_lookup_error(self, corpus):
        with pytest.raises(DatasetError):
            corpus.dev.schema("missing_db")

    def test_masked_question_cached(self, corpus):
        example = corpus.dev.examples[0]
        first = corpus.dev.masked_question(example)
        second = corpus.dev.masked_question(example)
        assert first == second

    def test_skeleton_cached(self, corpus):
        example = corpus.dev.examples[0]
        assert corpus.dev.skeleton(example) == corpus.dev.skeleton(example)

    def test_by_hardness_partition(self, corpus):
        buckets = corpus.dev.by_hardness()
        assert sum(len(v) for v in buckets.values()) == len(corpus.dev)

    def test_subset(self, corpus):
        subset = corpus.dev.subset([0, 1, 2])
        assert len(subset) == 3
        assert subset[0].question == corpus.dev[0].question

    def test_filter_dbs(self, corpus):
        db = corpus.dev.db_ids()[0]
        filtered = corpus.dev.filter_dbs([db])
        assert set(e.db_id for e in filtered) == {db}
        assert list(filtered.schemas) == [db]


class TestPersistence:
    def test_save_load_roundtrip(self, corpus, tmp_path):
        corpus.dev.save(tmp_path)
        loaded = SpiderDataset.load(tmp_path, "dev")
        assert len(loaded) == len(corpus.dev)
        assert loaded[0].query == corpus.dev[0].query
        assert set(loaded.schemas) == set(corpus.dev.schemas)

    def test_spider_format_on_disk(self, corpus, tmp_path):
        corpus.dev.save(tmp_path)
        tables = json.loads((tmp_path / "tables.json").read_text())
        assert all("column_names_original" in entry for entry in tables)
        examples = json.loads((tmp_path / "dev.json").read_text())
        assert all({"db_id", "question", "query"} <= set(e) for e in examples)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            SpiderDataset.load(tmp_path, "dev")

    def test_load_malformed_json(self, tmp_path):
        (tmp_path / "tables.json").write_text("{not json")
        (tmp_path / "dev.json").write_text("[]")
        with pytest.raises(DatasetError):
            SpiderDataset.load(tmp_path, "dev")


class TestValidation:
    def test_clean_corpus_validates(self, corpus):
        assert validate_dataset(corpus.dev) == []
        assert validate_dataset(corpus.train) == []

    def test_detects_bad_query(self, toy_schema):
        dataset = SpiderDataset(
            [Example(db_id="toy_concerts", question="q", query="SELECT FROM")],
            [toy_schema],
        )
        problems = validate_dataset(dataset)
        assert problems and "does not parse" in problems[0]

    def test_detects_unknown_table(self, toy_schema):
        dataset = SpiderDataset(
            [Example(db_id="toy_concerts", question="q",
                     query="SELECT a FROM missing_table")],
            [toy_schema],
        )
        problems = validate_dataset(dataset)
        assert problems and "unknown table" in problems[0]


class TestStratifiedSampling:
    def test_sample_size(self, corpus):
        sample = corpus.train.sample_stratified(20, seed=1)
        assert len(sample) == 20

    def test_distribution_preserved(self, corpus):
        full = corpus.train
        sample = full.sample_stratified(40, seed=2)
        full_easy = len(full.by_hardness()["easy"]) / len(full)
        sample_easy = len(sample.by_hardness()["easy"]) / len(sample)
        assert abs(full_easy - sample_easy) < 0.12

    def test_deterministic(self, corpus):
        a = corpus.train.sample_stratified(15, seed=3)
        b = corpus.train.sample_stratified(15, seed=3)
        assert [e.example_id for e in a] == [e.example_id for e in b]

    def test_seed_changes_sample(self, corpus):
        a = corpus.train.sample_stratified(15, seed=3)
        b = corpus.train.sample_stratified(15, seed=4)
        assert [e.example_id for e in a] != [e.example_id for e in b]

    def test_oversample_rejected(self, corpus):
        with pytest.raises(DatasetError):
            corpus.dev.sample_stratified(10_000)


class TestGoldAst:
    """An example keeps its gold AST exactly when it is the parse of
    its gold SQL."""

    def test_parse_in_post_init_is_kept(self):
        example = Example(db_id="d", question="q?", query="SELECT a FROM t")
        assert example.gold_ast == parse("SELECT a FROM t")

    def test_nothing_kept_without_a_parse(self):
        assert Example(db_id="d", question="q?",
                       query="garbage ¤").gold_ast is None
        given_hardness = Example(db_id="d", question="q?",
                                 query="SELECT a FROM t", hardness="easy")
        assert given_hardness.gold_ast is None

    def test_reassigned_query_drops_it(self):
        example = Example(db_id="d", question="q?", query="SELECT a FROM t")
        example.query = "SELECT b FROM t"
        assert example.gold_ast is None

    def test_not_a_field(self):
        example = Example(db_id="d", question="q?", query="SELECT a FROM t")
        assert "_gold" not in example.to_json()
        assert example == Example(db_id="d", question="q?",
                                  query="SELECT a FROM t", hardness="easy")

    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_dev_asts_are_the_parse_of_their_sql(self, seed):
        corpus = build_corpus(dataclasses.replace(FULL_CONFIG, seed=seed))
        try:
            for example in corpus.dev:
                assert example.gold_ast is not None
                assert parse(example.query) == example.gold_ast, (
                    example.example_id)
            realistic = spider_realistic(corpus.dev)
            assert [e.gold_ast for e in realistic] == [
                e.gold_ast for e in corpus.dev]
            # The train pool is only read as demonstrations.
            assert all(e.gold_ast is None for e in corpus.train)
        finally:
            corpus.close()
