"""The d = 2 staircase kernels: an ideal in two variables held as one sorted
vector of uint64 keys.

A row (x, y) packs into the key (x << 32) | y, and keys order rows
lexicographically.  ``ideal_core`` packs only the factors of products, and
only when every factor is int64-safe: each coordinate lies below
``INT64_SAFE`` = 2**31.  Two such y fields add up to less than 2**32 and
never carry into the x field, so the sum of two keys is the exact key of the
row sum, below 2**32 in each field.  So a product a*b is the union of the
runs b + t, one per key t of a, and the staircase of any key vector is one
sort and a scan of the running least y.  ``product_keys`` builds the runs of
several products at once and minimalizes them in one sort.  Ideals in every
other d never come here: ``ideal_core`` holds them as Python-int tuples.  H^0
lengths read a key-held staircase through ``key_columns`` and count on
Python ints.

numpy is imported by the first ``pack``, so a process that forms no d = 2
product never loads it.  Every key vector comes from ``pack``, so the other
kernels find numpy loaded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy

# Factor coordinates below this bound add up to key fields below 2**32.
INT64_SAFE = 2**31

np = None  # numpy, once _load has run


def _load() -> None:
    """Import numpy and build the uint64 scalars, so that numpy 1.x does not
    promote key arithmetic to float."""
    global np, _SHIFT, _MASK, _UINT64_MAX
    import numpy
    _SHIFT, _MASK = numpy.uint64(32), numpy.uint64(0xFFFFFFFF)
    _UINT64_MAX = numpy.iinfo(numpy.uint64).max
    np = numpy


# ---------------------------------------------------------------------------
# d = 2 keys.  pack, key_columns and key_rows are exact for coordinates in
# [0, 2**32).


def pack(rows) -> numpy.ndarray:
    """The keys (x << 32) | y of non-empty rows (x, y)."""
    if np is None:
        _load()
    u = np.array(rows, dtype=np.uint64)
    return (u[:, 0] << _SHIFT) | u[:, 1]


def key_columns(keys: numpy.ndarray) -> tuple[list[int], list[int]]:
    """The x and y columns of a key vector as lists of Python ints."""
    return (keys >> _SHIFT).tolist(), (keys & _MASK).tolist()


def key_rows(keys: numpy.ndarray) -> tuple[tuple[int, int], ...]:
    """The rows of a key vector as (x, y) tuples of Python ints."""
    return tuple(zip(*key_columns(keys)))


def key_extent(keys: numpy.ndarray) -> tuple[int, int]:
    """(max x, max y) of a non-empty staircase held as its sorted minimal
    keys: the last key's x and the first key's y."""
    return int(keys[-1]) >> 32, int(keys[0]) & 0xFFFFFFFF


def minimal_keys(keys: numpy.ndarray) -> numpy.ndarray:
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


def product_keys(pairs: Sequence[tuple[numpy.ndarray, numpy.ndarray]]) -> numpy.ndarray:
    """The minimal keys of the ideal generated by the products a*b of the
    non-empty staircases (a, b) in *pairs*, ascending.  Every factor must be
    int64-safe, so that each sum is exact, and *pairs* must not be empty.

    A product is the union of the runs b + t, one per key t of its smaller
    factor a.  The runs of every pair come from one concatenate of the run
    bases b and the shifts a, one repeat of the shifts along their runs and
    one add, and ``minimal_keys`` sorts them once: no numpy call is made
    per pair.
    """
    pieces, shifts, lengths = [], [], []
    for a, b in pairs:
        if len(a) > len(b):
            a, b = b, a
        pieces += [b] * len(a)
        shifts.append(a)
        lengths += [len(b)] * len(a)
    flat = np.concatenate(pieces + shifts)
    runs = flat[:-len(lengths)]
    runs += np.repeat(flat[-len(lengths):], lengths)
    return minimal_keys(runs)
