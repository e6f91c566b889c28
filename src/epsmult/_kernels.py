"""The d = 2 product kernel: the staircase of a sum of products of ideals in
two variables, on Python ints.

A row (x, y) packs into the key (x << s) | y, with s the bit length of the
largest y-sum of the pairs, so keys order rows lexicographically and the sum
of two keys is the exact key of the row sum: the y fields never carry into
the x field.  There is no overflow ceiling.  A product a*b is the union of
the runs b + t, one per key t of its smaller factor a, and the staircase of
all runs is one sort and a scan of the running least y.
"""

from __future__ import annotations

from typing import Sequence

Rows = Sequence[tuple[int, int]]


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
