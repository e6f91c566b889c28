"""Second routes for the benchmark's cross-checks, written without epsmult.

Monomials are tuples of Python ints and ideals are lists of generators.  The
routines are deliberately plain: they only have to be correct on the
benchmark's inputs, and they must share no code with the package, so that a
bug in the timed route cannot also hide in its check.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np


def divides(g, p) -> bool:
    return all(a <= b for a, b in zip(g, p))


def minimal(gens) -> list[tuple[int, ...]]:
    """Minimal generators of the ideal spanned by ``gens``, lex sorted."""
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(map(tuple, gens)), key=lambda g: (sum(g), g)):
        if not any(divides(k, g) for k in kept):
            kept.append(g)
    return sorted(kept)


def multiply(a, b) -> list[tuple[int, ...]]:
    return minimal(tuple(x + y for x, y in zip(g, h)) for g in a for h in b)


def add(a, b) -> list[tuple[int, ...]]:
    return minimal(list(a) + list(b))


def power(gens, n: int, d: int) -> list[tuple[int, ...]]:
    out = [(0,) * d]
    for _ in range(n):
        out = multiply(out, gens)
    return out


def contained(a, b) -> bool:
    """Ideal (a) lies inside ideal (b)."""
    return all(any(divides(h, g) for h in b) for g in a)


def saturate(gens) -> list[tuple[int, ...]]:
    """I : m^inf as the intersection of the colons I : x_i^inf."""
    d = len(gens[0])
    colons = [minimal(g[:i] + (0,) + g[i + 1:] for g in gens) for i in range(d)]
    return reduce(lambda a, b: minimal(tuple(map(max, g, h)) for g in a for h in b), colons)


def socle_count(gens, sat, box) -> int:
    """Number of monomials of the box in (sat) but not in (gens).

    Sweeps the columns over the first d-1 coordinates: along the last one,
    membership in a monomial ideal starts at a height, so each column
    contributes the gap between the two heights.
    """
    box = [int(b) for b in box]
    if min(box) <= 0:
        return 0
    top = box[-1]
    cols = np.indices(box[:-1], dtype=np.int64).reshape(len(box) - 1, -1).T

    def heights(ideal):
        h = np.full(cols.shape[0], top, dtype=np.int64)
        for g in ideal:
            reach = (cols >= np.asarray(g[:-1], dtype=np.int64)).all(axis=1)
            h[reach] = np.minimum(h[reach], g[-1])
        return h

    return int(np.clip(heights(gens) - heights(sat), 0, None).sum())


def h0(gens) -> int:
    """Length of H^0 of R/I over the box of generator-wise exponent maxima."""
    box = [max(g[i] for g in gens) for i in range(len(gens[0]))]
    return socle_count(gens, saturate(gens), box)


def _det(m) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def has_compact_facet(gens) -> bool:
    """Whether NP(I) has a facet with a strictly positive normal.

    Such a facet is spanned by d affinely independent generators and
    supports all of them; it exists exactly when the analytic spread is d,
    i.e. when epsilon is positive.
    """
    d = len(gens[0])
    for combo in itertools.combinations(gens, d):
        diffs = [[a - b for a, b in zip(g, combo[0])] for g in combo[1:]]
        normal = [(-1) ** j * _det([r[:j] + r[j + 1:] for r in diffs]) if d > 1 else 1
                  for j in range(d)]
        if all(x < 0 for x in normal):
            normal = [-x for x in normal]
        if not all(x > 0 for x in normal):
            continue
        level = sum(n * x for n, x in zip(normal, combo[0]))
        if all(sum(n * x for n, x in zip(normal, g)) >= level for g in gens):
            return True
    return False
