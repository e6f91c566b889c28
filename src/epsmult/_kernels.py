"""The d = 2 staircase kernels: an ideal in two variables held as one sorted
vector of uint64 keys.

Every coordinate handed in must lie in [0, ``INT64_SAFE``) = [0, 2**31).  A
row (x, y) packs into the key (x << 32) | y.  Keys order rows
lexicographically, and the sum of two keys is the key of the row sum,
because two y fields below 2**31 add up to less than 2**32 and never carry
into the x field.  So a product's candidate keys are the p*q sums of its
factors' keys, and the staircase of any key vector is one sort and a scan of
the running least y.  ``product_keys`` unions the staircases of several
products (and of further ideals) and minimalizes the union once more; in a
large product it sorts only the sums that no anti-diagonal neighbour covers.
``as_array`` returns None for rows outside the bound;
``ideal_core`` then takes its pure-Python big-integer routes.  Ideals in
every other d never come here: ``ideal_core`` holds them as Python-int
tuples.  Nor do H^0 counts: the slab route in ``cohomology`` works on
Python ints.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

# Coordinates below this bound cannot overflow int64 under pairwise addition.
INT64_SAFE = 2**31
# uint64 scalars, so that numpy 1.x does not promote key arithmetic to float
_SHIFT = np.uint64(32)
_MASK = np.uint64(0xFFFFFFFF)
_UINT64_MAX = np.iinfo(np.uint64).max
# A product with fewer candidate sums than this is sorted whole: below it the
# prune's masks cost more than the sort they save.  On the limit family the
# crossover is near 2,048; pruning every product, or none, was slower.
PRUNE_MIN_SUMS = 2048


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


def _steps(staircases: list[np.ndarray]) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """{id(keys): (widths, drops)} of each staircase in *staircases*: the
    int32 x[i+1] - x[i] > 0 and y[i] - y[i+1] > 0 of its sorted minimal keys,
    read off one diff over their concatenation, once per call."""
    if not staircases:
        return {}
    keys = np.concatenate(staircases)
    x, y = keys >> _SHIFT, keys & _MASK
    widths, drops = (x[1:] - x[:-1]).astype(np.int32), (y[:-1] - y[1:]).astype(np.int32)
    out, start = {}, 0
    for k in staircases:
        end = start + k.size - 1
        out[id(k)] = widths[start:end], drops[start:end]
        start = end + 1
    return out


def _uncovered(a_steps, b_steps) -> np.ndarray:
    """The (p, q) mask of the sums a_i + b_j of two staircases that no
    neighbour on their anti-diagonal covers.

    a_(i+1) + b_(j-1) covers a_i + b_j iff step i of a is no wider and no
    shallower than step j-1 of b.  The mirrored neighbour a_(i-1) + b_(j+1)
    counts only when it covers strictly, so that of two equal sums one stays.
    Covering is a partial order and both rules step along one line, so every
    pruned sum is covered by a kept one.
    """
    (wa, da), (wb, db) = a_steps, b_steps
    keep = np.ones((wa.size + 1, wb.size + 1), dtype=bool)
    left = wa[:, None] <= wb
    left &= da[:, None] >= db
    np.logical_not(left, out=keep[:-1, 1:])
    right = wa[:, None] >= wb
    right &= da[:, None] <= db
    right &= keep[:-1, 1:]
    keep[1:, :-1] &= ~right
    return keep


def product_keys(pairs: Sequence[tuple[np.ndarray, np.ndarray]],
                 extra: Sequence[np.ndarray] = ()) -> np.ndarray:
    """The minimal keys of the ideal generated by the products a*b of the
    staircases (a, b) in *pairs* and by the keys in *extra*, ascending.

    Each product's sums are minimalized on their own, then their union with
    *extra* once more; one product with no extra is its own staircase.  A
    product of at least ``PRUNE_MIN_SUMS`` sums drops the covered ones first
    (``_uncovered``).  Every sum must be int64-safe, and *pairs* and *extra*
    must not both be empty.
    """
    big = [a.size * b.size >= PRUNE_MIN_SUMS for a, b in pairs]
    steps = _steps([k for pair, cut in zip(pairs, big) if cut for k in pair])
    parts = []
    for (a, b), cut in zip(pairs, big):
        sums = a[:, None] + b
        if cut:
            sums = sums[_uncovered(steps[id(a)], steps[id(b)])]
        parts.append(minimal_keys(sums.ravel()))
    if len(parts) == 1 and not extra:
        return parts[0]
    return minimal_keys(np.concatenate(parts + list(extra)))
