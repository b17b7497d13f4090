"""Token counter tests."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.generator.corpus import build_corpus
from repro.experiments.context import FULL_CONFIG
from repro.prompt.builder import PromptBuilder
from repro.prompt.organization import ORGANIZATION_IDS, get_organization
from repro.prompt.representation import REPRESENTATION_IDS, get_representation
from repro.selection.strategies import MaskedQuestionSimilaritySelection
from repro.tokenizer.counter import (
    _COMMON,
    TokenCounter,
    count_tokens,
    tokenize_pieces,
)


class TestCounting:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_common_words_single_token(self):
        assert count_tokens("the") == 1
        assert count_tokens("select from where") == 3

    def test_long_word_splits(self):
        assert count_tokens("internationalization") > 2

    def test_punctuation_counts(self):
        assert count_tokens("a,b") == 3
        assert count_tokens("(((") == 3

    def test_digits_grouped(self):
        assert count_tokens("12") == 1
        assert count_tokens("123456") == 2

    def test_newlines_counted(self):
        assert count_tokens("a\nb") == count_tokens("a b") + 1

    def test_sql_text_plausible(self):
        sql = "SELECT name FROM singer WHERE age > 20 ORDER BY age DESC LIMIT 3"
        count = count_tokens(sql)
        # tiktoken gives ~16; stay in the same ballpark.
        assert 12 <= count <= 24


class TestMonotonicity:
    @given(st.text(alphabet="abcdefgh (),.*", max_size=60), st.text(
        alphabet="abcdefgh (),.*", max_size=20))
    @settings(deadline=None)
    def test_appending_never_decreases(self, base, extra):
        assert count_tokens(base + extra) >= count_tokens(base)

    @given(st.text(max_size=80))
    @settings(deadline=None)
    def test_nonnegative_and_bounded(self, text):
        count = count_tokens(text)
        assert 0 <= count <= max(1, len(text))


class TestPieces:
    def test_split(self):
        assert tokenize_pieces("a b") == ["a", " ", "b"]

    def test_mixed(self):
        assert tokenize_pieces("ab12!") == ["ab", "12", "!"]


class TestTokenCounterCache:
    def test_same_result_cached(self):
        counter = TokenCounter()
        text = "SELECT a FROM t"
        assert counter.count(text) == counter.count(text) == count_tokens(text)

    def test_cache_cap(self):
        counter = TokenCounter(max_cache=2)
        for i in range(5):
            counter.count(f"text {i}")
        assert len(counter._cache) <= 2


def reference_count_tokens(text):
    """``count_tokens`` as it was written before it priced each piece
    class in its own regex pass: one loop over every piece."""
    total = 0
    for piece in tokenize_pieces(text):
        if piece.isspace():
            total += piece.count("\n")
            continue
        if piece.isdigit():
            total += max(1, (len(piece) + 2) // 3)
            continue
        if piece.isalpha():
            lower = piece.lower()
            if lower in _COMMON or len(piece) <= 4:
                total += 1
            else:
                total += (len(piece) + 3) // 4
            continue
        total += 1
    return total


def corpus_texts(seed):
    """Every question and gold SQL of the seed's full corpus, the zero-
    shot prompt of every dev question under every representation, and a
    five-shot prompt of it under every organization."""
    corpus = build_corpus(dataclasses.replace(FULL_CONFIG, seed=seed))
    try:
        selection = MaskedQuestionSimilaritySelection(corpus.train)
        selection.set_target_dataset(corpus.dev)
        texts = [text for split in (corpus.train, corpus.dev)
                 for example in split
                 for text in (example.question, example.query)]
        for example in corpus.dev:
            schema = corpus.dev.schema(example.db_id)
            blocks = selection.select(example.question, example.db_id, 5)
            for rep_id in REPRESENTATION_IDS:
                builder = PromptBuilder(get_representation(rep_id),
                                        get_organization("FI_O"))
                texts.append(builder.build(schema, example.question).text)
            for org_id in ORGANIZATION_IDS:
                builder = PromptBuilder(get_representation("CR_P"),
                                        get_organization(org_id))
                texts.append(
                    builder.build(schema, example.question, blocks).text
                )
        return texts
    finally:
        corpus.close()


class TestSameAsReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_corpus_texts(self, seed):
        for text in corpus_texts(seed):
            assert count_tokens(text) == reference_count_tokens(text), text

    @pytest.mark.parametrize("text", [
        "", " ", "\n\n", " \n \t\n", "a", "abcd", "abcde", "Selection",
        "1", "123", "1234", "٣٤٥", "x²", "café", "naïve résumé", "a\u00a0b",
        "\u2028", "SELECT count(*) FROM t WHERE a >= 10;\n", "```sql\nx\n```",
    ])
    def test_edge_cases(self, text):
        assert count_tokens(text) == reference_count_tokens(text)

    @given(st.text(alphabet=st.sampled_from(
        list("SELECTFROMWHEREselectfromtheinternational_az019 .,;()*+-\n\t")
        + ["²", "é", "٣", "\u00a0", "\u2028"]
    ), max_size=60))
    @settings(max_examples=400, deadline=None)
    def test_generated_text(self, text):
        assert count_tokens(text) == reference_count_tokens(text)

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        assert count_tokens(text) == reference_count_tokens(text)
