"""The product kernels: a sum of products of ideals in two or three
variables, built on Python ints.

A row (x, y) packs into the key (x << s) | y, with s the bit length of the
largest y-sum of the pairs; a row (x, y, z) into (x << (sy + sz)) | (y << sz)
| z, with sy and sz the bit lengths of the largest y-sum and z-sum.  So keys
order rows lexicographically and the sum of two keys is the exact key of the
row sum: no field carries into the next one.  There is no overflow ceiling.
A product a*b is the union of the runs b + t, one per key t of its smaller
factor a.  In two variables the staircase of all runs is one sort and a scan
of the running least y (``product``).  In three, ``distinct_sums`` collects
the runs in one set, sorts the distinct keys once and unpacks them, and
``ideal_core._antichain`` keeps the minimal rows.
"""

from __future__ import annotations

from typing import Sequence

Rows = Sequence[tuple[int, ...]]


def product(pairs: Sequence[tuple[Rows, Rows]]) -> tuple[tuple[int, int], ...]:
    """The minimal generators, lex sorted, of the sum of the products a*b
    over *pairs* (a non-empty sequence) of non-empty lex-sorted antichains."""
    s = max(a[0][1] + b[0][1] for a, b in pairs).bit_length()
    keys = []
    for a, b in pairs:
        if len(a) > len(b):
            a, b = b, a
        run = [(x << s) | y for x, y in b]
        for x, y in a:
            keys += map(((x << s) | y).__add__, run)
    keys.sort()
    mask = (1 << s) - 1
    kept, low = [], mask + 1
    for k in keys:
        if k & mask < low:
            low = k & mask
            kept.append((k >> s, low))
    return tuple(kept)


def distinct_sums(pairs: Sequence[tuple[Rows, Rows]]) -> list[tuple[int, int, int]]:
    """The distinct row sums g + h, g in a and h in b, lex sorted, over
    *pairs* (a non-empty sequence) of non-empty sets of three-variable rows."""
    sy = max(max(g[1] for g in a) + max(g[1] for g in b) for a, b in pairs).bit_length()
    sz = max(max(g[2] for g in a) + max(g[2] for g in b) for a, b in pairs).bit_length()
    sx = sy + sz
    keys = set()
    for a, b in pairs:
        if len(a) > len(b):
            a, b = b, a
        run = [(x << sx) | (y << sz) | z for x, y, z in b]
        for x, y, z in a:
            keys.update(map(((x << sx) | (y << sz) | z).__add__, run))
    ymask, zmask = (1 << sy) - 1, (1 << sz) - 1
    return [(k >> sx, k >> sz & ymask, k & zmask) for k in sorted(keys)]
