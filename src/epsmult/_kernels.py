"""Integer lattice kernels on int64 numpy arrays.

Ideal arithmetic reduces to two array jobs:

* antichain minimalization of exponent vectors (the d = 2 staircase case is
  a sort + prefix-min scan, the general case a divisibility sweep),
* pairwise generator sums for ideal products.

Callers must keep coordinates below ``INT64_SAFE`` (sums of two coordinates
must not overflow); oversized inputs take the pure-Python object paths in
``ideal_core`` instead.  H^0 counting does not come through here: the slab
route in ``cohomology`` works on Python ints.
"""

from __future__ import annotations

import numpy as np

# Coordinates below this bound cannot overflow int64 under pairwise addition.
INT64_SAFE = 2**31


def as_array(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return np.ascontiguousarray(a)


# ---------------------------------------------------------------------------
# d = 2 minimalization: sort by x asc / y asc, keep rows whose y drops below
# the running minimum.  Kept rows come out with strictly increasing x, which
# is exactly lex order.


def minimal_rows_2d(arr: np.ndarray) -> np.ndarray:
    """Minimal elements (componentwise) of an (m, 2) int64 array, lex sorted."""
    if arr.shape[0] <= 1:
        return arr
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    srt = arr[order]
    ys = srt[:, 1]
    prev = np.empty_like(ys)
    prev[0] = np.iinfo(np.int64).max
    np.minimum.accumulate(ys[:-1], out=prev[1:])
    return srt[ys < prev]


# ---------------------------------------------------------------------------
# General-d minimalization: process rows by ascending total degree; a row is
# kept iff no already-kept row divides it (degree order makes this sound).


def minimal_rows_nd(arr: np.ndarray) -> np.ndarray:
    """Minimal elements of an (m, d) int64 array, lex sorted."""
    if arr.shape[0] <= 1:
        return arr
    deg = arr.sum(axis=1)
    order = np.lexsort(tuple(arr[:, c] for c in range(arr.shape[1] - 1, -1, -1)) + (deg,))
    kept: list[np.ndarray] = []
    block = None
    for row in arr[order]:
        if block is not None and bool((block <= row).all(axis=1).any()):
            continue
        kept.append(row)
        block = np.array(kept)
    out = np.array(kept)
    final = np.lexsort(tuple(out[:, c] for c in range(out.shape[1] - 1, -1, -1)))
    return out[final]


def pairwise_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All sums a_i + b_j of rows (generators of an ideal product)."""
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])
