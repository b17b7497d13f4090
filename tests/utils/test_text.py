"""Text utility tests."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.text import (
    char_ngrams,
    content_words,
    indent_block,
    join_nonempty,
    normalize_whitespace,
    snake_to_words,
    strip_accents,
    truncate_middle,
    word_tokenize,
)


class TestNormalizeWhitespace:
    def test_collapses_runs(self):
        assert normalize_whitespace("a\t b\n\nc ") == "a b c"

    def test_empty(self):
        assert normalize_whitespace("   ") == ""

    @given(st.text(alphabet=st.sampled_from(
        list("ab \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0")
        + ["\u1680", "\u2000", "\u2028", "\u2029", "\u200b", "\u3000", "\ufeff"]
    ), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_regex_definition(self, text):
        assert normalize_whitespace(text) == re.sub(r"\s+", " ", text).strip()

    @given(st.text(max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_any_text_equals_the_regex_definition(self, text):
        assert normalize_whitespace(text) == re.sub(r"\s+", " ", text).strip()


class TestStripAccents:
    def test_cafe(self):
        assert strip_accents("café") == "cafe"

    def test_plain_unchanged(self):
        assert strip_accents("plain") == "plain"


class TestTokenize:
    def test_words_and_punct(self):
        assert word_tokenize("Show VIP users!") == ["show", "vip", "users", "!"]

    def test_content_words_drop_stopwords(self):
        words = content_words("How many of the singers are there?")
        assert "the" not in words
        assert "singers" in words

    def test_content_words_drop_punct(self):
        assert "?" not in content_words("really?")


class TestSnakeToWords:
    def test_snake(self):
        assert snake_to_words("pet_age") == ["pet", "age"]

    def test_camel(self):
        assert snake_to_words("petAgeValue") == ["pet", "age", "value"]

    def test_single(self):
        assert snake_to_words("name") == ["name"]


class TestCharNgrams:
    def test_padding(self):
        assert char_ngrams("ab", 3) == ["#ab", "ab#"]

    def test_empty(self):
        assert char_ngrams("", 3) == []

    @given(st.text(min_size=1, max_size=20), st.integers(min_value=2, max_value=4))
    @settings(deadline=None)
    def test_count(self, text, n):
        grams = char_ngrams(text, n)
        padded_len = len(text) + 2
        expected = max(padded_len - n + 1, 1)
        assert len(grams) == expected


class TestTruncateMiddle:
    def test_short_unchanged(self):
        assert truncate_middle("short", 10) == "short"

    def test_truncates(self):
        out = truncate_middle("a" * 50, 20)
        assert len(out) == 20
        assert " ... " in out

    def test_tiny_budget(self):
        assert truncate_middle("abcdefgh", 3) == "abc"


class TestBlocks:
    def test_indent(self):
        assert indent_block("a\n\nb") == "    a\n\n    b"

    def test_join_nonempty(self):
        assert join_nonempty(["a", "", "b", None]) == "a\nb"
