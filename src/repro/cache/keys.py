"""Stable content hashing for cache keys.

A cache key must be identical across processes, platforms and Python
versions (``PYTHONHASHSEED`` included), and must change whenever any of
its inputs change.  :func:`stable_digest` therefore hashes a *canonical
encoding* of its parts: every value is tagged with its type and
composites are encoded recursively, so ``("a", 1)`` and ``("a1",)`` — or
``1`` and ``"1"`` — can never collide.

Sequences (lists and tuples) encode identically on purpose: callers
routinely rebuild key parts from JSON, which turns tuples into lists,
and that round-trip must not change the key.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

#: Bumped whenever the encoding or any stage's artifact layout changes;
#: part of every key, so stale on-disk entries simply stop matching.
CACHE_SCHEMA_VERSION = 1

_SEP = b"\x1f"


def _encode(value, out: list) -> None:
    if value is None:
        out.append(b"n")
    elif isinstance(value, bool):  # before int: bool is an int subclass
        out.append(b"b1" if value else b"b0")
    elif isinstance(value, int):
        out.append(b"i" + str(value).encode("ascii"))
    elif isinstance(value, float):
        out.append(b"f" + repr(value).encode("ascii"))
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out.append(b"s" + str(len(encoded)).encode("ascii") + b":" + encoded)
    elif isinstance(value, bytes):
        out.append(b"y" + str(len(value)).encode("ascii") + b":" + value)
    elif isinstance(value, (list, tuple)):
        out.append(b"[")
        for item in value:
            _encode(item, out)
            out.append(_SEP)
        out.append(b"]")
    elif isinstance(value, (set, frozenset)):
        _encode(sorted(map(repr, value)), out)
    elif isinstance(value, dict):
        out.append(b"{")
        for key in sorted(value, key=repr):
            _encode(key, out)
            out.append(b"=")
            _encode(value[key], out)
            out.append(_SEP)
        out.append(b"}")
    else:
        raise TypeError(
            f"cannot build a stable cache key from {type(value).__name__!r}; "
            "pass primitives, sequences or dicts (or a fingerprint string)"
        )


def canonical_bytes(*parts) -> bytes:
    """The canonical byte encoding :func:`stable_digest` hashes."""
    out: list = []
    for part in parts:
        _encode(part, out)
        out.append(_SEP)
    return b"".join(out)


def stable_digest(*parts) -> str:
    """Hex digest of the canonical encoding of ``parts``.

    Raises:
        TypeError: for values with no canonical encoding (arbitrary
            objects must be reduced to a fingerprint string first).
    """
    return hashlib.sha256(canonical_bytes(*parts)).hexdigest()


class DigestPrefix:
    """:func:`stable_digest` of ``(*head, [*items])``, hashed incrementally.

    ``canonical_bytes`` encodes parts in order, so the encoding of the
    head and of the list's leading items is a byte prefix of the whole.
    A prefix hashes it once; :meth:`extend` and :meth:`digest` continue
    from a ``copy()`` of that hash, so::

        DigestPrefix(*head).extend(*items[:k]).digest(*items[k:])
            == stable_digest(*head, list(items))

    Callers whose keys share leading items (fingerprints, a prompt's
    text) encode and hash them once instead of once per key.  A prefix
    is immutable: extending or finishing it never changes it.
    """

    __slots__ = ("_hash",)

    def __init__(self, *head) -> None:
        self._hash = hashlib.sha256(canonical_bytes(*head) + b"[")

    def extend(self, *items) -> "DigestPrefix":
        """A longer prefix: these items follow the ones already hashed."""
        longer = DigestPrefix.__new__(DigestPrefix)
        longer._hash = self._hash.copy()
        longer._hash.update(canonical_bytes(*items))
        return longer

    def digest(self, *items) -> str:
        """Hex digest of the whole key: the prefix, then ``items``."""
        whole = self._hash.copy()
        whole.update(canonical_bytes(*items) + b"]" + _SEP)
        return whole.hexdigest()


def digest_texts(texts: Iterable[str]) -> str:
    """Digest of an iterable of strings (dataset/corpus fingerprints).

    Streams through the hash instead of materialising the canonical
    encoding, so fingerprinting a large dataset stays cheap.
    """
    h = hashlib.sha256()
    for text in texts:
        encoded = text.encode("utf-8")
        h.update(str(len(encoded)).encode("ascii"))
        h.update(b":")
        h.update(encoded)
        h.update(_SEP)
    return h.hexdigest()
