"""Key encoding: stability, type safety, collision resistance."""

import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.keys import (
    DigestPrefix,
    canonical_bytes,
    digest_texts,
    stable_digest,
)


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest("a", 1, [2, 3]) == stable_digest("a", 1, [2, 3])

    def test_order_matters(self):
        assert stable_digest("a", "b") != stable_digest("b", "a")

    def test_list_and_tuple_encode_identically(self):
        # JSON round-trips turn tuples into lists; keys must not care.
        assert stable_digest("s", (1, 2), ["x", None]) == stable_digest(
            "s", [1, 2], ("x", None)
        )

    def test_type_tags_prevent_cross_type_collisions(self):
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest(None) != stable_digest("")
        assert stable_digest(1.0) != stable_digest(1)

    def test_string_length_framing_prevents_concatenation_collisions(self):
        assert stable_digest("ab", "c") != stable_digest("a", "bc")
        assert stable_digest(["ab"], ["c"]) != stable_digest(["ab", "c"])

    def test_nested_structures(self):
        a = stable_digest({"k": [1, {"x": (2, 3)}], "j": None})
        b = stable_digest({"j": None, "k": [1, {"x": [2, 3]}]})
        assert a == b  # dict key order and tuple/list spelling don't matter

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_stable_across_processes(self):
        """The property incremental sweeps rest on: a fresh interpreter
        (fresh PYTHONHASHSEED) derives the identical digest."""
        script = (
            "from repro.cache.keys import stable_digest;"
            "print(stable_digest('stage', 1, ['a', None], {'k': 2.5}))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": "random"},
        ).stdout.strip()
        assert out == stable_digest("stage", 1, ["a", None], {"k": 2.5})


class TestCanonicalBytes:
    def test_is_bytes_and_injective_on_cases(self):
        seen = set()
        for value in ("x", 7, 7.0, True, None, [1], {"a": 1}, b"x"):
            encoded = canonical_bytes(value)
            assert isinstance(encoded, bytes)
            assert encoded not in seen
            seen.add(encoded)


class TestDigestTexts:
    def test_streaming_matches_order(self):
        assert digest_texts(["a", "b"]) == digest_texts(["a", "b"])
        assert digest_texts(["a", "b"]) != digest_texts(["b", "a"])
        assert digest_texts(["ab"]) != digest_texts(["a", "b"])


#: Key parts the prefix property draws from: every encodable scalar
#: kind, plus lists of them.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.binary(),
    st.floats(allow_nan=False),
)
_PARTS = st.lists(st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
                  max_size=6)


class TestDigestPrefix:
    @given(head=_PARTS, items=_PARTS, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_whole_digest(self, head, items, data):
        cut = data.draw(st.integers(0, len(items)))
        prefix = DigestPrefix(*head)
        assert prefix.extend(*items[:cut]).digest(*items[cut:]) == (
            stable_digest(*head, list(items))
        )
        # Extending or finishing a prefix leaves it as it was.
        assert prefix.digest(*items) == stable_digest(*head, list(items))

    def test_extensions_are_independent(self):
        base = DigestPrefix(1, "generate").extend("client")
        one, two = base.extend("prompt one"), base.extend("prompt two")
        assert one.digest("sc-0") == stable_digest(
            1, "generate", ["client", "prompt one", "sc-0"])
        assert two.digest("sc-0") == stable_digest(
            1, "generate", ["client", "prompt two", "sc-0"])
