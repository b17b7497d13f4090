"""Small numpy helpers shared by the selection indexes."""

from __future__ import annotations

import numpy as np


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i]:starts[i] + counts[i]`` for every ``i``, concatenated."""
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(len(out))
    return out
