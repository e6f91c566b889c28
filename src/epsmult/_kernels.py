"""Integer lattice kernels on int64 numpy arrays.

Two array jobs of ideal arithmetic run here:

* the d = 2 antichain minimalization, one sort of packed keys and a
  prefix-min scan,
* pairwise generator sums for ideal products.

Every coordinate handed in must lie in [0, ``INT64_SAFE``) = [0, 2**31).
Then the sum of two coordinates cannot overflow, and in d = 2 a row (x, y)
packs into the single int64 key (x << 31) | y = x * 2**31 + y < 2**62.  That
key orders rows lexicographically and unpacks exactly, so the d = 2 staircase
is one sort of m keys and one scan.  ``as_array`` returns None for rows
outside the bound; ``ideal_core`` then takes its pure-Python big-integer
routes.  Minimalization in every other d is ``ideal_core._antichain``, the
level sweep on Python ints.  H^0 counting does not come through here: the
slab route in ``cohomology`` works on Python ints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# Coordinates below this bound cannot overflow int64 under pairwise addition.
INT64_SAFE = 2**31
_KEY_SHIFT = 31  # log2(INT64_SAFE)
_LOW = (1 << _KEY_SHIFT) - 1
_INT64_MAX = np.iinfo(np.int64).max


def as_array(rows) -> Optional[np.ndarray]:
    """Non-empty equal-width rows of non-negative ints as an (m, d) int64
    array, or None when a coordinate reaches INT64_SAFE."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        return None
    return a if a.max() < INT64_SAFE else None


# ---------------------------------------------------------------------------
# d = 2 minimalization: sort the packed keys (x asc, then y asc), keep rows
# whose y drops below the running minimum and unpack them.  Kept rows come out
# with strictly increasing x, which is exactly lex order.


def minimal_rows_2d(arr: np.ndarray) -> np.ndarray:
    """Minimal elements (componentwise) of an (m, 2) int64 array, lex sorted."""
    if arr.shape[0] <= 1:
        return arr
    key = np.sort((arr[:, 0] << _KEY_SHIFT) | arr[:, 1])
    ys = key & _LOW
    prev = np.empty_like(ys)
    prev[0] = _INT64_MAX
    np.minimum.accumulate(ys[:-1], out=prev[1:])
    kept = key[ys < prev]
    return np.stack((kept >> _KEY_SHIFT, kept & _LOW), axis=1)


def pairwise_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All sums a_i + b_j of rows (generators of an ideal product)."""
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])
