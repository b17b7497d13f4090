"""Schema linker tests: mention detection, masking, coverage."""

import pytest

from repro.schema.linker import MASK_TOKEN, SchemaLinker
from repro.schema.model import Column, DatabaseSchema, Table


@pytest.fixture()
def linker(toy_schema):
    return SchemaLinker(toy_schema)


class TestPhrasePrecedence:
    """Overlapping same-length phrase candidates resolve deterministically:
    tables beat columns, schema order breaks ties within a kind."""

    @staticmethod
    def _schema(tables):
        return DatabaseSchema(db_id="tie", tables=tuple(tables),
                              foreign_keys=())

    def test_first_table_in_schema_order_wins(self):
        # Two tables whose natural names collide on the phrase "show".
        a = Table(name="show", columns=(Column("id", "number"),))
        b = Table(name="shows", columns=(Column("id", "number"),))
        phrases = SchemaLinker._build_phrases(self._schema([a, b]))
        assert phrases[("show",)] == ("table", "show")
        # Reversing schema order flips the winner — order is the tie-break.
        flipped = SchemaLinker._build_phrases(self._schema([b, a]))
        assert flipped[("show",)] == ("table", "shows")

    def test_table_beats_earlier_column(self):
        # A column phrase registered first still loses to a table phrase.
        people = Table(name="people",
                       columns=(Column("orchestra", "text"),))
        orchestra = Table(name="orchestra",
                          columns=(Column("id", "number"),))
        phrases = SchemaLinker._build_phrases(self._schema([people, orchestra]))
        assert phrases[("orchestra",)] == ("table", "orchestra")

    def test_table_plural_variant_beats_column(self):
        # The *variant* key of a table also outranks a column phrase.
        people = Table(name="people", columns=(Column("concerts", "text"),))
        concert = Table(name="concert", columns=(Column("id", "number"),))
        phrases = SchemaLinker._build_phrases(self._schema([people, concert]))
        assert phrases[("concerts",)] == ("table", "concert")

    def test_first_column_in_schema_order_wins(self):
        # Two tables both expose a "name" column: schema order decides.
        singer = Table(name="singer", columns=(Column("name", "text"),))
        stadium = Table(name="stadium", columns=(Column("name", "text"),))
        phrases = SchemaLinker._build_phrases(self._schema([singer, stadium]))
        assert phrases[("name",)] == ("column", "singer.name")

    def test_linking_uses_resolved_winner(self):
        singer = Table(name="singer", columns=(Column("name", "text"),))
        stadium = Table(name="stadium", columns=(Column("name", "text"),))
        linker = SchemaLinker(self._schema([singer, stadium]))
        linking = linker.link("What is the name of each one?")
        assert "singer.name" in linking.columns()


class TestLinking:
    def test_table_mention(self, linker):
        linking = linker.link("How many singers are there?")
        assert "singer" in linking.tables()

    def test_column_mention(self, linker):
        linking = linker.link("What is the age of each singer?")
        assert "singer.age" in linking.columns()

    def test_multiword_column(self, linker):
        linking = linker.link("List the singer id of all concerts.")
        assert any("singer_id" in c for c in linking.columns())

    def test_number_is_value(self, linker):
        linking = linker.link("List singers older than 30.")
        assert "30" in linking.values()

    def test_quoted_value(self, linker):
        linking = linker.link('Which singer comes from "France"?')
        assert "France" in linking.values()

    def test_proper_noun_value(self, linker):
        linking = linker.link("Show concerts held by Ava Lee this year.")
        assert "Ava" in linking.values() or "Lee" in linking.values()

    def test_plural_matches_singular_table(self, linker):
        linking = linker.link("List all concerts.")
        assert "concert" in linking.tables()

    def test_mentions_sorted_by_position(self, linker):
        linking = linker.link("List the age and country of singers over 30.")
        starts = [m.start for m in linking.mentions]
        assert starts == sorted(starts)


class TestMasking:
    def test_schema_words_masked(self, linker):
        masked = linker.mask_question("What is the age of each singer?")
        assert "age" not in masked
        assert "singer" not in masked
        assert MASK_TOKEN in masked

    def test_values_masked(self, linker):
        masked = linker.mask_question("List singers older than 30.")
        assert "30" not in masked

    def test_consecutive_masks_collapse(self, linker):
        masked = linker.mask_question("List the singer age values.")
        assert f"{MASK_TOKEN} {MASK_TOKEN}" not in masked

    def test_intent_words_survive(self, linker):
        masked = linker.mask_question("How many singers are there?")
        assert "How many" in masked

    def test_custom_mask_token(self, linker):
        masked = linker.mask_question("List the age of singers.", mask="[X]")
        assert "[X]" in masked
        assert MASK_TOKEN not in masked


class TestCoverage:
    def test_schema_heavy_question_high(self, linker):
        linking = linker.link("List the name, age and country of each singer.")
        assert linking.coverage() > 0.6

    def test_vague_question_low(self, linker):
        linking = linker.link("Tell me something interesting please.")
        assert linking.coverage() < 0.3

    def test_empty_question(self, linker):
        assert linker.link("").coverage() == 0.0

    def test_coverage_bounded(self, corpus):
        for example in corpus.dev.examples[:20]:
            link = corpus.dev.linker(example.db_id).link(example.question)
            assert 0.0 <= link.coverage() <= 1.0


def _phrase_mentions_every_ngram(linker, question):
    """Schema mentions from looking up every n-gram, longest first."""
    from repro.schema.linker import _MAX_NGRAM, _TOKEN_RE
    from repro.utils.text import STOPWORDS

    lowered = [t.lower() for t in _TOKEN_RE.findall(question)]
    taken = [False] * len(lowered)
    found = []
    for length in range(min(_MAX_NGRAM, len(lowered)), 0, -1):
        for start in range(len(lowered) - length + 1):
            if any(taken[start:start + length]):
                continue
            key = tuple(lowered[start:start + length])
            hit = linker._phrases.get(key)
            if hit is None or (length == 1 and key[0] in STOPWORDS):
                continue
            found.append((start, start + length) + hit)
            taken[start:start + length] = [True] * length
    return sorted(found)


class TestFirstWordSkip:
    """``link`` looks up only n-grams whose first word starts some schema
    phrase; it finds the mentions a lookup of every n-gram finds."""

    def test_same_mentions_as_every_ngram(self, corpus):
        for dataset in (corpus.train, corpus.dev):
            for example in dataset:
                for linker in (dataset.linker(example.db_id),
                               corpus.dev.linker(corpus.dev.db_ids()[0])):
                    linking = linker.link(example.question)
                    schema = sorted(
                        (m.start, m.end, m.kind, m.target)
                        for m in linking.mentions if m.kind != "value"
                    )
                    assert schema == _phrase_mentions_every_ngram(
                        linker, example.question)

    @pytest.mark.parametrize("question", [
        "Zebra yak singer name of every concert",
        "name name singer age of the singers",
        "stadium",
        "",
        "Show 3 concerts in 'Wembley' by Anna",
    ])
    def test_crafted_questions(self, linker, question):
        linking = linker.link(question)
        schema = sorted((m.start, m.end, m.kind, m.target)
                        for m in linking.mentions if m.kind != "value")
        assert schema == _phrase_mentions_every_ngram(linker, question)
