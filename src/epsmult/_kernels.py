"""The d = 2 staircase kernels: an ideal in two variables held as one sorted
vector of uint64 keys.

Every coordinate handed in must lie in [0, ``INT64_SAFE``) = [0, 2**31).  A
row (x, y) packs into the key (x << 32) | y.  Keys order rows
lexicographically, and the sum of two keys is the key of the row sum,
because two y fields below 2**31 add up to less than 2**32 and never carry
into the x field.  So a product's candidate keys are the p*q sums of its
factors' keys, and the staircase of any key vector is one sort and a scan of
the running least y.  ``as_array`` returns None for rows outside the bound;
``ideal_core`` then takes its pure-Python big-integer routes.  Ideals in
every other d never come here: ``ideal_core`` holds them as Python-int
tuples.  Nor do H^0 counts: the slab route in ``cohomology`` works on
Python ints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# Coordinates below this bound cannot overflow int64 under pairwise addition.
INT64_SAFE = 2**31
# uint64 scalars, so that numpy 1.x does not promote key arithmetic to float
_SHIFT = np.uint64(32)
_MASK = np.uint64(0xFFFFFFFF)
_UINT64_MAX = np.iinfo(np.uint64).max


def as_array(rows) -> Optional[np.ndarray]:
    """Non-empty equal-width rows of non-negative ints as an (m, d) int64
    array, or None when a coordinate reaches INT64_SAFE."""
    try:
        a = np.array(rows, dtype=np.int64)
    except OverflowError:
        return None
    return a if a.max() < INT64_SAFE else None


# ---------------------------------------------------------------------------
# d = 2 keys.  pack and key_rows are exact for coordinates in [0, 2**32).


def pack(arr: np.ndarray) -> np.ndarray:
    """The keys (x << 32) | y of the rows of an (m, 2) int64 array."""
    u = arr.astype(np.uint64)
    return (u[:, 0] << _SHIFT) | u[:, 1]


def key_rows(keys: np.ndarray) -> tuple[tuple[int, int], ...]:
    """The rows of a key vector as (x, y) tuples of Python ints."""
    return tuple(zip((keys >> _SHIFT).tolist(), (keys & _MASK).tolist()))


def key_extent(keys: np.ndarray) -> tuple[int, int]:
    """(max x, max y) of a non-empty staircase held as its sorted minimal
    keys: the last key's x and the first key's y."""
    return int(keys[-1]) >> 32, int(keys[0]) & 0xFFFFFFFF


def minimal_keys(keys: np.ndarray) -> np.ndarray:
    """The keys of the minimal rows (componentwise), ascending.

    Sorts *keys* in place (x asc, then y asc) and keeps each key whose y
    drops below the running minimum; kept rows have strictly increasing x.
    """
    keys.sort()
    if keys.size <= 1:
        return keys
    ys = keys & _MASK
    prev = np.empty_like(ys)
    prev[0] = _UINT64_MAX
    np.minimum.accumulate(ys[:-1], out=prev[1:])
    return keys[ys < prev]
